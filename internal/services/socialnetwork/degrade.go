package socialnetwork

import (
	"context"

	"dsb/internal/svcutil"
)

// callBounded invokes a degradable downstream under svcutil's
// NonCriticalBudget when degrade is on, and transparently when it is off:
// fail-hard mode — the suite's only one, Config.DisableDegradation — keeps
// the caller's full deadline semantics.
func callBounded(ctx context.Context, degrade bool, c svcutil.Caller, method string, req, resp any) error {
	if !degrade {
		return c.Call(ctx, method, req, resp)
	}
	return svcutil.CallBounded(ctx, c, method, req, resp)
}

package experiments

import (
	"fmt"
	"testing"
)

// cpShapeViolations runs both cluster-parity arms once and returns the
// directional claims that did not hold. An empty list is a clean pass.
func cpShapeViolations() ([]string, error) {
	var v []string

	protected, err := cpRun(true)
	if err != nil {
		return nil, fmt.Errorf("plane arm failed to boot: %w", err)
	}
	unprotected, err := cpRun(false)
	if err != nil {
		return nil, fmt.Errorf("static arm failed to boot: %w", err)
	}

	// Both arms must have a healthy warm phase for every tenant — the
	// retention ratios below are meaningless otherwise.
	for _, arm := range []struct {
		name string
		res  cpArmResult
	}{{"plane", protected}, {"static", unprotected}} {
		for _, tenant := range cpTenantNames {
			w := arm.res.warm[tenant]
			if w.offered <= 0 || w.ratio < 0.5 {
				v = append(v, fmt.Sprintf("%s arm: tenant %s unhealthy at warm load: offered %.0f req/s, good/offered %.2f",
					arm.name, tenant, w.offered, w.ratio))
			}
		}
	}
	if len(v) > 0 {
		return v, nil
	}

	// The acceptance bar: with the control plane on, the flash crowd costs
	// the four background tenants less than 20% of their good/offered;
	// without it, the hit is materially larger.
	onWorst, onName := protected.worstBackgroundRetention()
	offWorst, offName := unprotected.worstBackgroundRetention()
	if onWorst < 0.8 {
		v = append(v, fmt.Sprintf("plane on: background tenant %s retained only %.2f of its good/offered (want >= 0.8)",
			onName, onWorst))
	}
	if offWorst >= 0.65 {
		v = append(v, fmt.Sprintf("plane off: worst background retention %.2f (%s) — the unprotected crowd should have dragged it below 0.65",
			offWorst, offName))
	}

	// The isolation must come from the mechanism: the plane arm actually
	// shed crowd traffic at the social front door, the static arm cannot
	// (it has no admission to shed with).
	if protected.socialShed == 0 {
		v = append(v, "plane on: zero sheds at social.frontend — admission never engaged, so the isolation is luck")
	}
	if unprotected.socialShed != 0 {
		v = append(v, fmt.Sprintf("plane off: %d sheds recorded without a control plane", unprotected.socialShed))
	}
	return v, nil
}

// TestClusterParityShape asserts the directional claims of the
// mixed-tenant cluster experiment: five live apps share one registry and
// one machine budget; a flash crowd on the Social Network tenant must
// degrade the other four tenants' good/offered by less than 20% with the
// control plane on (admission + autoscaling), and materially more with it
// off. Both arms are wall-clock queueing measurements, so the shape gets
// three attempts and passes on the first clean one; a real regression
// fails all three deterministically.
func TestClusterParityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live mixed-tenant cluster runs skipped in -short mode")
	}
	retryShape(t, func(int) ([]string, error) { return cpShapeViolations() })
}

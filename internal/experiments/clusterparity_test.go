package experiments

import (
	"math"
	"testing"

	"dsb/internal/vtime"
)

// TestClusterParityShape asserts the directional claims of the
// mixed-tenant cluster experiment: five live apps share one registry and
// one machine budget; a flash crowd on the Social Network tenant must
// degrade the other four tenants' good/offered by less than 20% with the
// control plane on (admission + autoscaling), and materially more with it
// off.
func TestClusterParityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live mixed-tenant cluster runs skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		protected, err := cpRun(true)
		if err != nil {
			t.Fatalf("plane arm failed to boot: %v", err)
		}
		unprotected, err := cpRun(false)
		if err != nil {
			t.Fatalf("static arm failed to boot: %v", err)
		}
		// Virtual time is exact; which goroutine runs first at an instant is
		// not. Below saturation a rerun on the same seed reads the same numbers
		// to the last digit; a collapsing arm does not — ecommerce kept 0.50 of
		// its crowd-phase goodput on one run here and 0.47 on the next — so the
		// static arm runs twice and must agree to within cpRerunTolerance.
		const cpRerunTolerance = 0.1
		again, err := cpRun(false)
		if err != nil {
			t.Fatalf("static arm failed to boot again: %v", err)
		}
		for _, tenant := range cpTenantNames {
			if a, b := unprotected.crowd[tenant].ratio, again.crowd[tenant].ratio; math.Abs(a-b) > cpRerunTolerance {
				t.Errorf("static arm, same seed: tenant %s crowd-phase good/offered %.2f, then %.2f; want within %.2f",
					tenant, a, b, cpRerunTolerance)
			}
		}

		// Both arms must have a healthy warm phase for every tenant — the
		// retention ratios below are meaningless otherwise.
		for _, arm := range []struct {
			name string
			res  cpArmResult
		}{{"plane", protected}, {"static", unprotected}} {
			for _, tenant := range cpTenantNames {
				w := arm.res.warm[tenant]
				if w.offered <= 0 || w.ratio != 1 {
					t.Errorf("%s arm: tenant %s unhealthy at warm load: offered %.0f req/s, good/offered %.2f",
						arm.name, tenant, w.offered, w.ratio)
				}
			}
		}
		if t.Failed() {
			return
		}

		// The acceptance bar: with the control plane on, the flash crowd costs
		// the four background tenants next to nothing (the issue asked for under
		// 20%); without it, the worst-hit tenant loses most of its goodput.
		onWorst, onName := protected.worstBackgroundRetention()
		offWorst, offName := unprotected.worstBackgroundRetention()
		if onWorst < 0.95 {
			t.Errorf("plane on: background tenant %s retained only %.2f of its good/offered (want >= 0.95)",
				onName, onWorst)
		}
		if offWorst >= 0.25 {
			t.Errorf("plane off: worst background retention %.2f (%s) — the unprotected crowd should have dragged it below 0.25",
				offWorst, offName)
		}

		// The isolation must come from the mechanism: the plane arm actually
		// shed crowd traffic at the social front door, the static arm cannot
		// (it has no admission to shed with).
		if protected.socialShed == 0 {
			t.Error("plane on: zero sheds at social.frontend — admission never engaged, so the isolation is luck")
		}
		if unprotected.socialShed != 0 {
			t.Errorf("plane off: %d sheds recorded without a control plane", unprotected.socialShed)
		}
	})
}

package experiments

import (
	"fmt"
	"time"

	"dsb/internal/archsim"
	"dsb/internal/graph"
	"dsb/internal/sim"
)

func defaultNet() archsim.Network { return archsim.DefaultNetwork }

func fpgaFactor(avgBytes float64) float64 { return archsim.FPGAAccelFactor(avgBytes) }

// Fig10 reproduces the per-microservice cycle breakdown and IPC for the
// Social Network and E-commerce applications, plus their monolithic
// equivalents — the vTune top-down analysis.
func Fig10() *Report {
	r := &Report{
		ID:     "fig10",
		Title:  "Cycle breakdown (front-end / bad speculation / back-end / retiring) and IPC",
		Header: []string{"app", "service", "front-end", "bad spec", "back-end", "retiring", "IPC"},
	}
	emit := func(appName string, svc string, p graph.Profile) {
		b := archsim.CycleBreakdown(p)
		r.Rows = append(r.Rows, []string{
			appName, svc,
			fmt.Sprintf("%.0f%%", b.FrontendPct),
			fmt.Sprintf("%.0f%%", b.BadSpecPct),
			fmt.Sprintf("%.0f%%", b.BackendPct),
			fmt.Sprintf("%.0f%%", b.RetiringPct),
			f2(b.IPC),
		})
	}
	for _, app := range []*graph.App{graph.SocialNetwork(), graph.Ecommerce()} {
		var retiringSum float64
		var count int
		for _, svc := range app.Services() {
			p := app.Profiles[svc]
			emit(app.Name, svc, p)
			retiringSum += archsim.CycleBreakdown(p).RetiringPct
			count++
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%s mean retiring = %.0f%% (paper: ~21%% for Social Network)", app.Name, retiringSum/float64(count)))
	}
	mono := graph.SocialNetworkMonolith()
	emit(mono.Name, "monolith", mono.Profiles["monolith"])
	r.Notes = append(r.Notes,
		"shape check: front-end stalls dominate; search has the highest IPC, the ML recommender the lowest")
	return r
}

// Fig11 reproduces the per-microservice L1i MPKI bars for Social Network
// and E-commerce, with monolith and backing stores for contrast.
func Fig11() *Report {
	r := &Report{
		ID:     "fig11",
		Title:  "L1 instruction-cache misses per kilo-instruction",
		Header: []string{"app", "service", "L1i MPKI", "code KB"},
	}
	for _, app := range []*graph.App{graph.SocialNetwork(), graph.Ecommerce()} {
		for _, svc := range app.Services() {
			p := app.Profiles[svc]
			r.Rows = append(r.Rows, []string{app.Name, svc, f1(archsim.L1iMPKI(p)), fmt.Sprintf("%.0f", p.CodeKB)})
		}
	}
	mono := graph.SocialNetworkMonolith()
	r.Rows = append(r.Rows, []string{mono.Name, "monolith", f1(archsim.L1iMPKI(mono.Profiles["monolith"])), fmt.Sprintf("%.0f", mono.Profiles["monolith"].CodeKB)})
	r.Notes = append(r.Notes,
		"paper: nginx/memcached/MongoDB and especially monoliths stay i-cache-hungry (40-70 MPKI); small single-concern microservices drop well below",
	)
	return r
}

// Fig14 reproduces the kernel/user/library cycle and instruction breakdown
// per end-to-end service. Instruction shares shift slightly toward user
// code because kernel paths retire fewer instructions per cycle.
func Fig14() *Report {
	r := &Report{
		ID:     "fig14",
		Title:  "Cycles (C) and instructions (I) in kernel / user / libraries",
		Header: []string{"application", "kernel C", "user C", "libs C", "kernel I", "user I", "libs I"},
	}
	apps := append(graph.EndToEndApps(), graph.SwarmEdge())
	for _, app := range apps {
		b := archsim.AppOSBreakdown(app, archsim.DefaultNetwork)
		// Kernel code retires ~30% fewer instructions per cycle than user
		// code, so the instruction view shifts away from the kernel.
		ki := b.KernelPct * 0.7
		scale := (100 - ki) / (b.UserPct + b.LibPct)
		r.Rows = append(r.Rows, []string{
			app.Name,
			fmt.Sprintf("%.0f%%", b.KernelPct), fmt.Sprintf("%.0f%%", b.UserPct), fmt.Sprintf("%.0f%%", b.LibPct),
			fmt.Sprintf("%.0f%%", ki), fmt.Sprintf("%.0f%%", b.UserPct*scale), fmt.Sprintf("%.0f%%", b.LibPct*scale),
		})
	}
	r.Notes = append(r.Notes,
		"paper: Social Network and Media Service are the most kernel-heavy; Swarm spends nearly half its cycles in libraries")
	return r
}

// Fig13 compares saturation throughput under a QoS target across the Xeon
// at nominal frequency, the Xeon clocked to 1.8GHz, and the ThunderX.
func Fig13() *Report {
	return fig13(graph.SocialNetwork, graph.MediaService, graph.Ecommerce, graph.Banking, graph.SwarmCloud)
}

func fig13(apps ...func() *graph.App) *Report {
	r := &Report{
		ID:     "fig13",
		Title:  "Max QPS under QoS: Xeon vs Xeon@1.8 vs ThunderX",
		Header: []string{"application", "xeon", "xeon@1.8", "thunderx", "xeon/thunderx"},
	}
	for _, build := range apps {
		app := build()
		cap := func(plat archsim.Platform) float64 {
			return findCapacity(func() *sim.Deployment {
				d, _ := sim.NewDeployment(sim.New(), sim.Config{App: app, Platform: plat, WorkerScale: 0.25, Seed: 13})
				return d
			}, 8, 1500*time.Millisecond, 5)
		}
		x := cap(archsim.XeonPlatform)
		x18 := cap(archsim.XeonLowFreq)
		tx := cap(archsim.ThunderXPlatform)
		ratio := "-"
		if tx > 0 {
			ratio = fmt.Sprintf("%.1fx", x/tx)
		}
		r.Rows = append(r.Rows, []string{app.Name, qpsStr(x), qpsStr(x18), qpsStr(tx), ratio})
	}
	r.Notes = append(r.Notes,
		"paper: all five services saturate much earlier on ThunderX; Xeon at 1.8GHz sits between",
		"Swarm is the least sensitive — it is bound by the cloud-edge link, not compute")
	return r
}

// Fig12 sweeps operating frequency against offered load and reports the
// p99 normalized to each application's QoS target (its low-load p99 ×5),
// reproducing the tail-latency heatmaps.
func Fig12() *Report {
	r := &Report{
		ID:     "fig12",
		Title:  "p99 normalized to QoS across load and frequency (>1.00 violates)",
		Header: []string{"application", "load", "2.4GHz", "2.0GHz", "1.6GHz", "1.2GHz"},
	}
	freqs := []float64{2.4, 2.0, 1.6, 1.2}
	type target struct {
		name  string
		build func() *graph.App
	}
	targets := []target{
		{"nginx", graph.Nginx}, {"memcached", graph.Memcached}, {"mongodb", graph.MongoDB},
		{"xapian", graph.Xapian}, {"recommender", graph.Recommender},
		{"socialNetwork", graph.SocialNetwork}, {"mediaService", graph.MediaService},
		{"ecommerce", graph.Ecommerce}, {"banking", graph.Banking}, {"swarm-cloud", graph.SwarmCloud},
	}
	dur := 1200 * time.Millisecond
	var monoSens, microSens []float64
	for _, tg := range targets {
		app := tg.build()
		// Section 3.8 provisioning: every tier sized to saturate at about
		// the same load (here ~400 QPS at nominal frequency), so frequency
		// loss bites every tier of the chain at once.
		mk := func(freq float64) *sim.Deployment {
			plat := archsim.XeonPlatform
			plat.FreqGHz = freq
			d, _ := sim.NewDeployment(sim.New(), sim.Config{App: app, Platform: plat, Seed: 12})
			d.BalanceWorkers(400, 1.3)
			return d
		}
		capQPS := findCapacity(func() *sim.Deployment { return mk(2.4) }, 8, dur, 5)
		// QoS targets are fixed at nominal conditions. The end-to-end
		// budget is 5x the nominal p99; each individual microservice of a
		// multi-tier application additionally carries a much stricter
		// per-tier budget (2x its nominal p99) — Section 4's explanation
		// for why microservices cannot tolerate poor single-thread
		// performance. Single-binary applications only have the end-to-end
		// budget.
		baseline := mk(2.4).RunOpenLoop(8, dur)
		qosE2E := 5 * float64(baseline.E2E.P99)
		qosTier := map[string]float64{}
		if len(app.Profiles) > 1 {
			for svc, snap := range baseline.PerService {
				qosTier[svc] = 2 * float64(snap.P99)
			}
		}
		for _, loadFrac := range []float64{0.3, 0.6, 0.9} {
			row := []string{app.Name, fmt.Sprintf("%.0f%%", loadFrac*100)}
			for _, freq := range freqs {
				res := mk(freq).RunOpenLoop(capQPS*loadFrac, dur)
				norm := float64(res.E2E.P99) / qosE2E
				for svc, snap := range res.PerService {
					if q := qosTier[svc]; q > 0 {
						if tn := float64(snap.P99) / q; tn > norm {
							norm = tn
						}
					}
				}
				row = append(row, f2(norm))
				if freq == 1.2 && loadFrac == 0.6 {
					if len(app.Profiles) <= 1 {
						monoSens = append(monoSens, norm)
					} else {
						microSens = append(microSens, norm)
					}
				}
			}
			r.Rows = append(r.Rows, row)
		}
	}
	monoAvg, microAvg := mean(monoSens), mean(microSens)
	r.Notes = append(r.Notes,
		fmt.Sprintf("mean normalized p99 at 1.2GHz, 60%% load: single-tier %.2f vs end-to-end %.2f", monoAvg, microAvg),
		"paper: end-to-end microservices are more sensitive to frequency than monolithic services; MongoDB is nearly insensitive (I/O-bound)")
	return r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

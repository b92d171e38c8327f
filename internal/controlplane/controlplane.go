// Package controlplane is the cluster manager for the live service stack —
// the layer the paper's cluster-management findings (Figs 17–19) need a
// real system to study: admission control at every replica, windowed load
// reporting from replica to controller, and a reconciler that scales tiers
// by starting and stopping live replicas through a Spawner.
//
// The three pieces compose but stand alone:
//
//   - Admission guards one replica: a bounded queue in front of the
//     handler pool, CoDel-style shedding when queueing delay stays above
//     target, and rejection of requests whose remaining deadline budget
//     cannot cover the tier's expected service time. Sheds return
//     transport.CodeOverloaded, which the client stack treats as
//     retry-elsewhere-for-free and never as a breaker failure.
//   - LoadReport is the replica's windowed self-description (utilization,
//     queue depth, rates, recent percentiles), exported on the same RPC
//     server via a reserved method (or a reserved path on REST servers).
//   - Controller polls reports per managed service, aggregates them, asks
//     a Policy for the desired replica count, and reconciles through the
//     Spawner + registry so balancers follow within one watch
//     notification.
//
// Plane bundles them for core.App: install its hooks via
// core.Options.RPCServerHook/RESTServerHook and every replica the app
// starts gets admission control and a report endpoint automatically. The
// App is the Controller's Spawner too: every tier it has Defined can be
// scaled, with no opt-in from the app built on it.
package controlplane

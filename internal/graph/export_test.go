package graph

// SingleTierApps returns the five single-tier baselines in paper order.
func SingleTierApps() []*App {
	return []*App{Nginx(), Memcached(), MongoDB(), Xapian(), Recommender()}
}

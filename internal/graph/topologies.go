package graph

// Reference platform for profile calibration: cycles are spent at the
// simulated frequency, so a 240k-cycle service takes 100µs at 2.4GHz.
// Values are tuned so end-to-end latencies and network shares land near the
// paper's reported numbers (Fig 3: Social ≈3.8ms / 36% network; memcached
// ≈186µs / 20%; nginx ≈1.3ms / 5%; MongoDB ≈383µs / 14%).

const (
	// DatacenterWireNs is the one-way propagation between tiers on the
	// 10GbE ToR network.
	DatacenterWireNs = 4e3
	// WifiWireNs is the one-way cloud↔drone hop.
	WifiWireNs = 20e6
)

func n(service string, work float64, calls ...Call) *Node {
	return &Node{Service: service, Work: work, Calls: calls}
}

func seq(stage int, node *Node) Call         { return Call{Node: node, Count: 1, Stage: stage} }
func many(stage, count int, node *Node) Call { return Call{Node: node, Count: count, Stage: stage} }

// SocialNetwork returns the Social Network topology (composePost-dominated
// mix, including the timeline fan-out that makes reposts the slowest query
// class).
func SocialNetwork() *App {
	p := map[string]Profile{
		"nginx":         {Language: "C", Cycles: 260e3, CodeKB: 560, KernelFrac: 0.50, LibFrac: 0.22, MsgBytes: 1500, Workers: 32},
		"composePost":   {Language: "C++", Cycles: 300e3, CodeKB: 130, KernelFrac: 0.38, LibFrac: 0.30, MsgBytes: 1200, Workers: 16, Stateless: true},
		"uniqueID":      {Language: "C++", Cycles: 55e3, CodeKB: 35, KernelFrac: 0.35, LibFrac: 0.28, MsgBytes: 128, Workers: 16, Stateless: true},
		"text":          {Language: "C++", Cycles: 330e3, CodeKB: 140, KernelFrac: 0.36, LibFrac: 0.30, MsgBytes: 1024, Workers: 16, Stateless: true},
		"urlShorten":    {Language: "C++", Cycles: 130e3, CodeKB: 60, KernelFrac: 0.36, LibFrac: 0.28, MsgBytes: 256, Workers: 16, Stateless: true},
		"userTag":       {Language: "C++", Cycles: 110e3, CodeKB: 55, KernelFrac: 0.36, LibFrac: 0.28, MsgBytes: 256, Workers: 16, Stateless: true},
		"login":         {Language: "PHP", Cycles: 260e3, CodeKB: 160, KernelFrac: 0.34, LibFrac: 0.33, MsgBytes: 384, Workers: 16},
		"video":         {Language: "node.js", Cycles: 620e3, CodeKB: 180, KernelFrac: 0.33, LibFrac: 0.40, MsgBytes: 65536, Workers: 16, Stateless: true},
		"image":         {Language: "node.js", Cycles: 520e3, CodeKB: 170, KernelFrac: 0.33, LibFrac: 0.40, MsgBytes: 32768, Workers: 16, Stateless: true},
		"postsStorage":  {Language: "Java", Cycles: 240e3, CodeKB: 150, KernelFrac: 0.35, LibFrac: 0.30, MsgBytes: 1500, Workers: 24},
		"writeTimeline": {Language: "Java", Cycles: 270e3, CodeKB: 140, KernelFrac: 0.36, LibFrac: 0.30, MsgBytes: 512, Workers: 24},
		"readPost":      {Language: "Go", Cycles: 160e3, CodeKB: 90, KernelFrac: 0.36, LibFrac: 0.26, MsgBytes: 1500, Workers: 16, Stateless: true},
		"writeGraph":    {Language: "Java", Cycles: 200e3, CodeKB: 120, KernelFrac: 0.36, LibFrac: 0.30, MsgBytes: 512, Workers: 24},
		"search":        {Language: "C++", Cycles: 310e3, CodeKB: 85, KernelFrac: 0.28, LibFrac: 0.22, MsgBytes: 640, Workers: 16, RetireShare: 0.72},
		"recommender":   {Language: "Scala", Cycles: 820e3, CodeKB: 260, KernelFrac: 0.22, LibFrac: 0.38, MsgBytes: 512, Workers: 8, RetireShare: 0.22},
		"memcached":     {Language: "C", Cycles: 90e3, FixedNs: 18e3, CodeKB: 420, KernelFrac: 0.62, LibFrac: 0.18, MsgBytes: 1024, Workers: 32},
		"mongodb":       {Language: "C++", Cycles: 200e3, FixedNs: 200e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32},
	}
	root := n("nginx", 1,
		seq(0, n("login", 0.4)),
		seq(1, n("composePost", 1,
			seq(0, n("uniqueID", 1)),
			seq(0, n("text", 1,
				seq(0, n("urlShorten", 1)),
				seq(0, n("userTag", 1)),
			)),
			seq(0, n("image", 0.6)),
			seq(1, n("postsStorage", 1,
				seq(0, n("memcached", 1)),
				seq(0, n("mongodb", 1)),
			)),
			seq(2, n("writeTimeline", 1,
				seq(0, n("writeGraph", 1, seq(0, n("mongodb", 0.8)))),
				many(1, 3, n("mongodb", 0.7)),
				seq(1, n("memcached", 1)),
			)),
			seq(2, n("search", 1)),
		)),
		seq(2, n("readPost", 0.8, seq(0, n("memcached", 0.8)))),
	)
	return &App{Name: "socialNetwork", Profiles: p, Root: root, WireNs: DatacenterWireNs}
}

// SocialNetworkMonolith is the same user-visible functionality in one
// binary plus shared cache/database backends.
func SocialNetworkMonolith() *App {
	p := map[string]Profile{
		"monolith":  {Language: "Java", Cycles: 3.0e6, CodeKB: 2600, KernelFrac: 0.30, LibFrac: 0.28, MsgBytes: 2048, Workers: 64},
		"memcached": {Language: "C", Cycles: 90e3, FixedNs: 18e3, CodeKB: 420, KernelFrac: 0.62, LibFrac: 0.18, MsgBytes: 1024, Workers: 32},
		"mongodb":   {Language: "C++", Cycles: 200e3, FixedNs: 200e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32},
	}
	root := n("monolith", 1,
		seq(0, n("memcached", 1)),
		seq(1, n("mongodb", 1)),
		many(2, 3, n("mongodb", 0.7)),
	)
	return &App{Name: "socialNetwork-monolith", Profiles: p, Root: root, WireNs: DatacenterWireNs}
}

// MediaService returns the Media Service topology (composeReview-dominated,
// with the payment/rent path folded into the mix weightings).
func MediaService() *App {
	p := map[string]Profile{
		"nginx":         {Language: "C", Cycles: 260e3, CodeKB: 560, KernelFrac: 0.50, LibFrac: 0.22, MsgBytes: 1500, Workers: 32},
		"composeReview": {Language: "C++", Cycles: 280e3, CodeKB: 120, KernelFrac: 0.37, LibFrac: 0.30, MsgBytes: 1024, Workers: 16, Stateless: true},
		"login":         {Language: "PHP", Cycles: 260e3, CodeKB: 160, KernelFrac: 0.34, LibFrac: 0.33, MsgBytes: 384, Workers: 16},
		"movieID":       {Language: "Java", Cycles: 160e3, CodeKB: 90, KernelFrac: 0.35, LibFrac: 0.30, MsgBytes: 256, Workers: 16, Stateless: true},
		"rating":        {Language: "Go", Cycles: 70e3, CodeKB: 40, KernelFrac: 0.34, LibFrac: 0.25, MsgBytes: 128, Workers: 16, Stateless: true},
		"movieReview":   {Language: "Java", Cycles: 240e3, CodeKB: 130, KernelFrac: 0.35, LibFrac: 0.30, MsgBytes: 1024, Workers: 24},
		"reviewStorage": {Language: "Java", Cycles: 250e3, CodeKB: 140, KernelFrac: 0.36, LibFrac: 0.30, MsgBytes: 1024, Workers: 24},
		"payment":       {Language: "Java", Cycles: 380e3, CodeKB: 170, KernelFrac: 0.30, LibFrac: 0.32, MsgBytes: 384, Workers: 16},
		"videoStream":   {Language: "C", Cycles: 340e3, FixedNs: 120e3, CodeKB: 580, KernelFrac: 0.55, LibFrac: 0.20, MsgBytes: 262144, Workers: 32},
		"mysql":         {Language: "C++", Cycles: 260e3, FixedNs: 180e3, CodeKB: 1100, KernelFrac: 0.44, LibFrac: 0.24, MsgBytes: 2048, Workers: 32},
		"memcached":     {Language: "C", Cycles: 90e3, FixedNs: 18e3, CodeKB: 420, KernelFrac: 0.62, LibFrac: 0.18, MsgBytes: 1024, Workers: 32},
		"mongodb":       {Language: "C++", Cycles: 200e3, FixedNs: 200e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32},
	}
	root := n("nginx", 1,
		seq(0, n("composeReview", 1,
			seq(0, n("login", 1, seq(0, n("memcached", 0.8)))),
			seq(1, n("movieID", 1, seq(0, n("mysql", 0.9)))),
			seq(1, n("rating", 1)),
			seq(2, n("movieReview", 1,
				seq(0, n("reviewStorage", 1,
					seq(0, n("memcached", 1)),
					seq(0, n("mongodb", 1)),
				)),
				seq(1, n("mysql", 0.6)),
			)),
		)),
		seq(1, n("payment", 0.3, seq(0, n("mysql", 0.5)))),
		seq(2, n("videoStream", 0.2)),
	)
	return &App{Name: "mediaService", Profiles: p, Root: root, WireNs: DatacenterWireNs}
}

// Ecommerce returns the E-commerce topology (placeOrder-dominated; note
// queueMaster's Workers:1, the serialization the paper calls out).
func Ecommerce() *App {
	p := map[string]Profile{
		"frontend":      {Language: "node.js", Cycles: 480e3, CodeKB: 300, KernelFrac: 0.32, LibFrac: 0.42, MsgBytes: 2048, Workers: 32},
		"orders":        {Language: "Go", Cycles: 420e3, CodeKB: 160, KernelFrac: 0.30, LibFrac: 0.26, MsgBytes: 1024, Workers: 16},
		"accountInfo":   {Language: "Go", Cycles: 230e3, CodeKB: 110, KernelFrac: 0.33, LibFrac: 0.26, MsgBytes: 384, Workers: 16},
		"cart":          {Language: "Java", Cycles: 200e3, CodeKB: 120, KernelFrac: 0.34, LibFrac: 0.31, MsgBytes: 512, Workers: 16},
		"catalogue":     {Language: "Go", Cycles: 280e3, CodeKB: 130, KernelFrac: 0.33, LibFrac: 0.26, MsgBytes: 1024, Workers: 24},
		"shipping":      {Language: "Java", Cycles: 150e3, CodeKB: 90, KernelFrac: 0.33, LibFrac: 0.31, MsgBytes: 256, Workers: 16, Stateless: true},
		"discounts":     {Language: "Java", Cycles: 210e3, CodeKB: 100, KernelFrac: 0.33, LibFrac: 0.31, MsgBytes: 256, Workers: 16, Stateless: true},
		"authorization": {Language: "Go", Cycles: 190e3, CodeKB: 95, KernelFrac: 0.32, LibFrac: 0.26, MsgBytes: 256, Workers: 16, Stateless: true},
		"payment":       {Language: "Go", Cycles: 270e3, CodeKB: 120, KernelFrac: 0.31, LibFrac: 0.26, MsgBytes: 384, Workers: 16},
		"transactionID": {Language: "Java", Cycles: 50e3, CodeKB: 30, KernelFrac: 0.34, LibFrac: 0.30, MsgBytes: 128, Workers: 16, Stateless: true},
		"invoicing":     {Language: "Java", Cycles: 230e3, CodeKB: 120, KernelFrac: 0.33, LibFrac: 0.31, MsgBytes: 768, Workers: 16},
		"queueMaster":   {Language: "Go", Cycles: 300e3, CodeKB: 110, KernelFrac: 0.34, LibFrac: 0.26, MsgBytes: 512, Workers: 1},
		"wishlist":      {Language: "Java", Cycles: 90e3, CodeKB: 28, KernelFrac: 0.33, LibFrac: 0.30, MsgBytes: 256, Workers: 16, Stateless: true, RetireShare: 0.6},
		"recommender":   {Language: "Scala", Cycles: 820e3, CodeKB: 260, KernelFrac: 0.22, LibFrac: 0.38, MsgBytes: 512, Workers: 8, RetireShare: 0.22},
		"search":        {Language: "C++", Cycles: 310e3, CodeKB: 85, KernelFrac: 0.28, LibFrac: 0.22, MsgBytes: 640, Workers: 16, RetireShare: 0.72},
		"memcached":     {Language: "C", Cycles: 90e3, FixedNs: 18e3, CodeKB: 420, KernelFrac: 0.62, LibFrac: 0.18, MsgBytes: 1024, Workers: 32},
		"mongodb":       {Language: "C++", Cycles: 200e3, FixedNs: 200e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32},
	}
	root := n("frontend", 1,
		seq(0, n("search", 0.5)),
		seq(0, n("catalogue", 1, seq(0, n("memcached", 1)), seq(1, n("mongodb", 0.4)))),
		seq(1, n("orders", 1,
			seq(0, n("accountInfo", 1, seq(0, n("memcached", 0.7)))),
			seq(1, n("cart", 1, seq(0, n("mongodb", 0.8)))),
			seq(2, n("catalogue", 0.8, seq(0, n("memcached", 1)))),
			seq(2, n("shipping", 1)),
			seq(2, n("discounts", 1)),
			seq(3, n("payment", 1,
				seq(0, n("authorization", 1, seq(0, n("accountInfo", 0.6)))),
				seq(1, n("accountInfo", 0.6, seq(0, n("mongodb", 0.6)))),
			)),
			seq(3, n("transactionID", 1)),
			seq(4, n("invoicing", 1, seq(0, n("mongodb", 0.7)))),
			seq(4, n("queueMaster", 1, seq(0, n("mongodb", 0.9)))),
			seq(5, n("cart", 0.4, seq(0, n("mongodb", 0.5)))),
		)),
		seq(2, n("wishlist", 0.2)),
		seq(2, n("recommender", 0.3)),
	)
	return &App{Name: "ecommerce", Profiles: p, Root: root, WireNs: DatacenterWireNs}
}

// Banking returns the Banking System topology (payment-dominated).
func Banking() *App {
	p := map[string]Profile{
		"frontend":           {Language: "node.js", Cycles: 450e3, CodeKB: 290, KernelFrac: 0.32, LibFrac: 0.42, MsgBytes: 1024, Workers: 32},
		"payments":           {Language: "Java", Cycles: 320e3, CodeKB: 150, KernelFrac: 0.31, LibFrac: 0.33, MsgBytes: 512, Workers: 16},
		"authentication":     {Language: "Java", Cycles: 250e3, CodeKB: 140, KernelFrac: 0.32, LibFrac: 0.33, MsgBytes: 384, Workers: 16},
		"acl":                {Language: "Java", Cycles: 140e3, CodeKB: 80, KernelFrac: 0.33, LibFrac: 0.31, MsgBytes: 256, Workers: 16, Stateless: true},
		"transactionPosting": {Language: "Java", Cycles: 360e3, FixedNs: 90e3, CodeKB: 190, KernelFrac: 0.33, LibFrac: 0.30, MsgBytes: 768, Workers: 8},
		"customerActivity":   {Language: "Javascript", Cycles: 190e3, CodeKB: 110, KernelFrac: 0.32, LibFrac: 0.40, MsgBytes: 512, Workers: 16},
		"customerInfo":       {Language: "Java", Cycles: 210e3, CodeKB: 120, KernelFrac: 0.33, LibFrac: 0.31, MsgBytes: 768, Workers: 16},
		"wealthMgmt":         {Language: "Java", Cycles: 520e3, CodeKB: 200, KernelFrac: 0.27, LibFrac: 0.33, MsgBytes: 1024, Workers: 8},
		"offerBanners":       {Language: "Javascript", Cycles: 90e3, CodeKB: 50, KernelFrac: 0.32, LibFrac: 0.40, MsgBytes: 512, Workers: 16, Stateless: true},
		"bankInfoDB":         {Language: "C++", Cycles: 240e3, FixedNs: 160e3, CodeKB: 1000, KernelFrac: 0.44, LibFrac: 0.24, MsgBytes: 1024, Workers: 32},
		"memcached":          {Language: "C", Cycles: 90e3, FixedNs: 18e3, CodeKB: 420, KernelFrac: 0.62, LibFrac: 0.18, MsgBytes: 1024, Workers: 32},
		"mongodb":            {Language: "C++", Cycles: 200e3, FixedNs: 200e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32},
	}
	root := n("frontend", 1,
		seq(0, n("authentication", 1, seq(0, n("memcached", 0.8)))),
		seq(1, n("payments", 1,
			seq(0, n("acl", 1, seq(0, n("mongodb", 0.5)))),
			seq(1, n("transactionPosting", 1, many(0, 2, n("mongodb", 0.8)))),
			seq(2, n("customerActivity", 1, seq(0, n("mongodb", 0.6)))),
		)),
		seq(2, n("customerInfo", 0.5, seq(0, n("memcached", 0.7)))),
		seq(2, n("offerBanners", 0.3)),
		seq(2, n("bankInfoDB", 0.2)),
	)
	return &App{Name: "banking", Profiles: p, Root: root, WireNs: DatacenterWireNs}
}

// SwarmCloud returns the Swarm topology with computation in the cloud: the
// drone ships sensors and frames over wifi; the cloud recognizes, avoids,
// and plans.
func SwarmCloud() *App {
	p := map[string]Profile{
		"droneSensors":      {Language: "Javascript", Cycles: 120e3, CodeKB: 60, KernelFrac: 0.38, LibFrac: 0.45, MsgBytes: 32768, Workers: 4},
		"cloudController":   {Language: "Javascript", Cycles: 240e3, CodeKB: 150, KernelFrac: 0.33, LibFrac: 0.44, MsgBytes: 2048, Workers: 32},
		"imageRecognition":  {Language: "C++", Cycles: 96e6, CodeKB: 340, KernelFrac: 0.18, LibFrac: 0.48, MsgBytes: 32768, Workers: 32},
		"obstacleAvoidance": {Language: "C++", Cycles: 2.2e6, CodeKB: 120, KernelFrac: 0.22, LibFrac: 0.35, MsgBytes: 512, Workers: 32},
		"motionControl":     {Language: "Javascript", Cycles: 1.6e6, CodeKB: 140, KernelFrac: 0.28, LibFrac: 0.45, MsgBytes: 512, Workers: 32},
		"mongodb":           {Language: "C++", Cycles: 200e3, FixedNs: 200e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32},
	}
	root := n("droneSensors", 1,
		seq(0, n("cloudController", 1,
			seq(0, n("imageRecognition", 1)),
			seq(0, n("obstacleAvoidance", 1)),
			seq(1, n("motionControl", 1)),
			many(2, 2, n("mongodb", 0.5)),
		)),
	)
	return &App{Name: "swarm-cloud", Profiles: p, Root: root, WireNs: WifiWireNs}
}

// SwarmEdge returns the Swarm topology with computation on the drones: the
// same work runs on weak edge cores; only route construction and archival
// cross the wifi hop. The simulator marks services on edge machines via
// the deployment's placement hook.
func SwarmEdge() *App {
	app := SwarmCloud()
	app.Name = "swarm-edge"
	// Recognition/avoidance/motion run on-drone: same cycle counts, but the
	// deployment places them on edge-class machines and removes the wifi
	// hop in front of them (see sim.Deployment.EdgeServices).
	return app
}

// Single-tier baseline applications (Fig 3 and the top row of Fig 12).

func singleTier(name string, p Profile, wire float64) *App {
	return &App{
		Name:     name,
		Profiles: map[string]Profile{name: p},
		Root:     n(name, 1),
		WireNs:   wire,
	}
}

// Nginx is the static-content webserver baseline.
func Nginx() *App {
	return singleTier("nginx", Profile{Language: "C", Cycles: 2.8e6, CodeKB: 560, KernelFrac: 0.52, LibFrac: 0.20, MsgBytes: 8192, Workers: 32}, DatacenterWireNs)
}

// Memcached is the in-memory cache baseline.
func Memcached() *App {
	return singleTier("memcached", Profile{Language: "C", Cycles: 280e3, FixedNs: 25e3, CodeKB: 420, KernelFrac: 0.62, LibFrac: 0.18, MsgBytes: 1024, Workers: 32}, DatacenterWireNs)
}

// MongoDB is the persistent-store baseline; FixedNs dominates, making it
// I/O-bound and thus frequency-insensitive (Fig 12).
func MongoDB() *App {
	return singleTier("mongodb", Profile{Language: "C++", Cycles: 260e3, FixedNs: 260e3, CodeKB: 900, KernelFrac: 0.48, LibFrac: 0.22, MsgBytes: 2048, Workers: 32}, DatacenterWireNs)
}

// Xapian is the websearch leaf baseline (high IPC, small footprint).
func Xapian() *App {
	return singleTier("xapian", Profile{Language: "C++", Cycles: 1.4e6, CodeKB: 80, KernelFrac: 0.20, LibFrac: 0.22, MsgBytes: 640, Workers: 16, RetireShare: 0.75}, DatacenterWireNs)
}

// Recommender is the ML-inference baseline (low IPC).
func Recommender() *App {
	return singleTier("recommender", Profile{Language: "Scala", Cycles: 2.2e6, CodeKB: 260, KernelFrac: 0.18, LibFrac: 0.40, MsgBytes: 512, Workers: 8, RetireShare: 0.22}, DatacenterWireNs)
}

// EndToEndApps returns the five end-to-end services in paper order.
func EndToEndApps() []*App {
	return []*App{SocialNetwork(), MediaService(), Ecommerce(), Banking(), SwarmCloud()}
}

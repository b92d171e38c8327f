// Quickstart boots the entire Social Network — thirty-odd microservices,
// caches, and document stores — inside one process on the in-memory
// transport, exercises it through the REST front door, and prints what the
// distributed tracer saw. No ports, no containers; everything is real code
// paths end to end.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dsb/internal/core"
	"dsb/internal/services/socialnetwork"
)

func main() {
	app := core.NewApp("quickstart", core.Options{})
	defer app.Close()

	sn, err := socialnetwork.New(app, socialnetwork.Config{})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	fmt.Printf("booted Social Network with %d microservices\n\n", len(app.Registry.Services()))

	ctx := context.Background()
	fe := sn.Frontend

	// Register and log in two users over REST.
	for _, user := range []string{"ada", "grace"} {
		if err := fe.Do(ctx, "POST", "/register", socialnetwork.LoginReq{Username: user, Password: "pw-" + user}, nil); err != nil {
			log.Fatalf("register %s: %v", user, err)
		}
	}
	var ada socialnetwork.LoginResp
	if err := fe.Do(ctx, "POST", "/login", socialnetwork.LoginReq{Username: "ada", Password: "pw-ada"}, &ada); err != nil {
		log.Fatalf("login: %v", err)
	}
	var grace socialnetwork.LoginResp
	if err := fe.Do(ctx, "POST", "/login", socialnetwork.LoginReq{Username: "grace", Password: "pw-grace"}, &grace); err != nil {
		log.Fatalf("login: %v", err)
	}

	// grace follows ada; ada posts; grace reads her timeline.
	if err := fe.Do(ctx, "POST", "/follow", socialnetwork.FollowBody{Token: grace.Token, Followee: "ada"}, nil); err != nil {
		log.Fatalf("follow: %v", err)
	}
	var post socialnetwork.Post
	if err := fe.Do(ctx, "POST", "/posts", socialnetwork.ComposePostReq{
		Token: ada.Token,
		Text:  "hello @grace — analytical engines at https://example.com/engines are underrated",
	}, &post); err != nil {
		log.Fatalf("post: %v", err)
	}
	fmt.Printf("ada posted %s\n  text:     %s\n  mentions: %v\n  urls:     %v\n\n",
		post.ID, post.Text, post.Mentions, post.URLs)

	var timeline []socialnetwork.Post
	if err := fe.Do(ctx, "GET", "/timeline/grace", nil, &timeline); err != nil {
		log.Fatalf("timeline: %v", err)
	}
	fmt.Printf("grace's timeline has %d post(s); newest: %q\n\n", len(timeline), timeline[0].Text)

	var hits []socialnetwork.SearchHit
	if err := fe.Do(ctx, "GET", "/search?q=analytical+engines", nil, &hits); err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("search for \"analytical engines\": %d hit(s)\n\n", len(hits))

	// What did the tracer see for the compose request?
	app.FlushTraces()
	fmt.Printf("tracer collected %d end-to-end traces; per-service latencies:\n", app.Traces.Len())
	app.FlushTraces()
	for svc, h := range app.Traces.ServiceLatencies() {
		s := h.Snapshot()
		if s.Count >= 2 {
			fmt.Printf("  %-26s n=%-3d p50=%v\n", svc, s.Count, time.Duration(s.P50).Round(time.Microsecond))
		}
	}
}

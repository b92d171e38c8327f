package media

import (
	"context"
	"encoding/base64"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"

	"dsb/internal/core"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

func bootMedia(t *testing.T) *Media {
	t.Helper()
	app := core.NewApp("media-test", core.Options{})
	t.Cleanup(func() { app.Close() })
	m, err := New(app, Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	film := make([]byte, 600<<10) // ~600KB "movie" spanning 3 chunks
	for i := range film {
		film[i] = byte(i * 7)
	}
	movies := []struct {
		m    Movie
		plot string
	}{
		{Movie{ID: "mv-1", Title: "The Heap", Year: 2019, Genre: "drama"}, "A memory allocator falls in love."},
		{Movie{ID: "mv-2", Title: "Goroutine", Year: 2021, Genre: "thriller"}, "Ten thousand threads, one scheduler."},
		{Movie{ID: "mv-3", Title: "Deadlock", Year: 2020, Genre: "thriller"}, "Two mutexes, no way out."},
	}
	for _, mv := range movies {
		cast := []CastMember{{Actor: "A. Pointer", Role: "lead"}, {Actor: "B. Slice", Role: "support"}}
		var file []byte
		if mv.m.ID == "mv-1" {
			file = film
		}
		if err := m.SeedMovie(mv.m, mv.plot, cast, file); err != nil {
			t.Fatalf("seed %s: %v", mv.m.ID, err)
		}
	}
	return m
}

func register(t *testing.T, m *Media, user string) string {
	t.Helper()
	ctx := context.Background()
	if err := m.User.Call(ctx, "Register", accounts.RegisterReq{Username: user, Password: "pw", BalanceCents: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	var login accounts.LoginResp
	if err := m.User.Call(ctx, "Login", accounts.LoginReq{Username: user, Password: "pw"}, &login); err != nil {
		t.Fatal(err)
	}
	return login.Token
}

func TestMoviePageAggregation(t *testing.T) {
	m := bootMedia(t)
	var page MoviePage
	if err := m.Frontend.Do(context.Background(), "GET", "/movies/The Heap", nil, &page); err != nil {
		t.Fatal(err)
	}
	if page.Movie.ID != "mv-1" || page.Plot == "" || len(page.Cast) != 2 {
		t.Fatalf("page = %+v", page)
	}
	if err := m.Frontend.Do(context.Background(), "GET", "/movies/Nope", nil, nil); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("missing movie: %v", err)
	}
}

func TestComposeReviewUpdatesAggregate(t *testing.T) {
	m := bootMedia(t)
	token := register(t, m, "critic")
	ctx := context.Background()
	var resp ComposeReviewResp
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
		Token: token, MovieTitle: "Goroutine", Text: "gripping!", Rating: 9,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Review.MovieID != "mv-2" || resp.Review.Username != "critic" {
		t.Fatalf("review = %+v", resp.Review)
	}
	var movie GetMovieResp
	if err := m.MovieDB.Call(ctx, "Get", GetMovieReq{ID: "mv-2"}, &movie); err != nil {
		t.Fatal(err)
	}
	if movie.Movie.NumRating != 1 || movie.Movie.AvgRating != 9 {
		t.Fatalf("aggregate = %+v", movie.Movie)
	}
	// Page shows the review.
	var page MoviePage
	if err := m.Frontend.Do(ctx, "GET", "/movies/Goroutine", nil, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Reviews) != 1 || page.Reviews[0].Text != "gripping!" {
		t.Fatalf("page reviews = %+v", page.Reviews)
	}
	// Validation failures.
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{Token: token, MovieTitle: "Goroutine", Text: "", Rating: 5}, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("empty text: %v", err)
	}
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{Token: token, MovieTitle: "Goroutine", Text: "x", Rating: 11}, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("rating 11: %v", err)
	}
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{Token: "bogus", MovieTitle: "Goroutine", Text: "x", Rating: 5}, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("bad token: %v", err)
	}
}

func TestRentChargesAndStreams(t *testing.T) {
	m := bootMedia(t)
	token := register(t, m, "viewer")
	ctx := context.Background()

	var rent RentResp
	if err := m.Rent.Call(ctx, "Rent", RentReq{Token: token, MovieID: "mv-1"}, &rent); err != nil {
		t.Fatal(err)
	}
	if bal := balance(t, m, "viewer"); bal != 1000-rentalPriceCents {
		t.Fatalf("balance = %d", bal)
	}

	// Stream the whole movie through the HLS tier and verify integrity.
	var manifest ManifestBody
	if err := m.Streaming.Do(ctx, "GET", "/stream/mv-1/manifest?lease="+rent.Rental.Token, nil, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Segments == 0 {
		t.Fatalf("manifest = %+v", manifest)
	}
	var assembled []byte
	for i := 0; i < manifest.Segments; i++ {
		var seg SegmentBody
		path := "/stream/mv-1/segment/" + itoa(i) + "?lease=" + rent.Rental.Token
		if err := m.Streaming.Do(ctx, "GET", path, nil, &seg); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		data, err := base64.StdEncoding.DecodeString(seg.Data)
		if err != nil {
			t.Fatal(err)
		}
		assembled = append(assembled, data...)
	}
	if int64(len(assembled)) != manifest.Size || crc32.ChecksumIEEE(assembled) != manifest.Checksum {
		t.Fatalf("stream corrupt: %d bytes, checksum mismatch", len(assembled))
	}

	// No lease, no stream.
	if err := m.Streaming.Do(ctx, "GET", "/stream/mv-1/manifest?lease=none", nil, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("bad lease: %v", err)
	}
	// Lease bound to a different movie fails.
	if err := m.Streaming.Do(ctx, "GET", "/stream/mv-2/manifest?lease="+rent.Rental.Token, nil, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("cross-movie lease: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestInsufficientFunds(t *testing.T) {
	m := bootMedia(t)
	ctx := context.Background()
	if err := m.User.Call(ctx, "Register", accounts.RegisterReq{Username: "broke", Password: "pw", BalanceCents: 10}, nil); err != nil {
		t.Fatal(err)
	}
	var login accounts.LoginResp
	if err := m.User.Call(ctx, "Login", accounts.LoginReq{Username: "broke", Password: "pw"}, &login); err != nil {
		t.Fatal(err)
	}
	err := m.Rent.Call(ctx, "Rent", RentReq{Token: login.Token, MovieID: "mv-1"}, nil)
	if !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("broke rent: %v", err)
	}
}

func TestRecommenderPrefersLikedGenre(t *testing.T) {
	m := bootMedia(t)
	token := register(t, m, "fan")
	ctx := context.Background()
	// Loves thrillers (Goroutine: 10), hates drama (The Heap: 1).
	for _, r := range []struct {
		title  string
		rating int64
	}{{"Goroutine", 10}, {"The Heap", 1}} {
		if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{Token: token, MovieTitle: r.title, Text: "review", Rating: r.rating}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var recs []Movie
	if err := m.Frontend.Do(ctx, "GET", "/recommend?token="+token, nil, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// Deadlock (unseen thriller) must be recommended first.
	if recs[0].ID != "mv-3" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestFrontendRegisterLoginReviewFlow(t *testing.T) {
	m := bootMedia(t)
	ctx := context.Background()
	if err := m.Frontend.Do(ctx, "POST", "/register", accounts.LoginReq{Username: "rest-user", Password: "pw"}, nil); err != nil {
		t.Fatal(err)
	}
	var login accounts.LoginResp
	if err := m.Frontend.Do(ctx, "POST", "/login", accounts.LoginReq{Username: "rest-user", Password: "pw"}, &login); err != nil {
		t.Fatal(err)
	}
	var review Review
	if err := m.Frontend.Do(ctx, "POST", "/reviews", ComposeReviewReq{Token: login.Token, MovieTitle: "Deadlock", Text: "tense", Rating: 8}, &review); err != nil {
		t.Fatal(err)
	}
	var mine []Review
	if err := m.Frontend.Do(ctx, "GET", "/users/rest-user/reviews", nil, &mine); err != nil {
		t.Fatal(err)
	}
	if len(mine) != 1 || mine[0].ID != review.ID {
		t.Fatalf("user reviews = %+v", mine)
	}
	// Rent over REST.
	var rental Rental
	if err := m.Frontend.Do(ctx, "POST", "/rent", RentReq{Token: login.Token, MovieID: "mv-3"}, &rental); err != nil {
		t.Fatal(err)
	}
	if rental.MovieID != "mv-3" || rental.Token == "" {
		t.Fatalf("rental = %+v", rental)
	}
}

// TestConcurrentChargesNeverOverdraw races more charges than one opening
// balance covers: the balance never goes below zero, and it ends at the
// opening balance less exactly the charges that were accepted.
func TestConcurrentChargesNeverOverdraw(t *testing.T) {
	m := bootMedia(t)
	ctx := context.Background()
	const opening, price, workers, charges = 1000, 30, 8, 10
	if err := m.User.Call(ctx, "Register", accounts.RegisterReq{Username: "payer", Password: "pw", BalanceCents: opening}, nil); err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < charges; i++ {
				var bal BalanceResp
				err := m.User.Call(ctx, "Charge", ChargeReq{Username: "payer", AmountCents: price}, &bal)
				switch {
				case err == nil:
					accepted.Add(1)
					if bal.BalanceCents < 0 {
						t.Errorf("a charge left the balance at %d", bal.BalanceCents)
					}
				case !rpc.IsCode(err, rpc.CodeUnauthorized):
					t.Errorf("charge: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if bal, want := balance(t, m, "payer"), opening-price*accepted.Load(); bal != want || bal < 0 {
		t.Fatalf("balance %d after %d accepted charges of %d from %d, want %d", bal, accepted.Load(), price, opening, want)
	}
}

// balance reads a user's balance where the user tier keeps it: the users
// collection of its document store.
func balance(t *testing.T, m *Media, username string) int64 {
	t.Helper()
	c, err := m.App.RPC("test", "media.db-users")
	if err != nil {
		t.Fatal(err)
	}
	doc, found, err := svcutil.DB{C: c}.Get(context.Background(), "users", username)
	if err != nil || !found {
		t.Fatalf("user %q: found %v, %v", username, found, err)
	}
	return doc.Nums["balance"]
}

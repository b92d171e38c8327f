package dsb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dsb"
	"dsb/internal/rpc"
	"dsb/internal/services/banking"
	"dsb/internal/services/ecommerce"
	"dsb/internal/services/media"
)

// contractStep is one POST to a front door: the literal JSON a client sends
// (with {name} standing for a value an earlier step saved), the coded error
// it must get (0 for success), and what the JSON reply must hold.
type contractStep struct {
	path, body string
	code       int
	// want maps a top-level reply key to its value: a string or bool is
	// compared exactly, a float64 as a JSON number, an int is the length of
	// the array there, and nonEmpty is any non-empty string.
	want map[string]any
	// save records reply keys as {name}s for later steps: name → key.
	save map[string]string
}

const nonEmpty = "<non-empty>"

// TestRESTContract pins the JSON the four REST front doors accept on every
// POST route whose body becomes an RPC request: snake_case keys, base64
// attachments, a client-sent balance that does nothing, and the coded
// errors a bad body, a bad credential or a duplicate account get.
func TestRESTContract(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		app string
		// setup seeds the app through its handle and returns the {name}s
		// the steps start with.
		setup func(t *testing.T, handle any) map[string]string
		steps []contractStep
		// after checks what the steps left behind, through the handle.
		after func(t *testing.T, handle any)
	}{
		{
			app: "social",
			steps: []contractStep{
				{path: "/register", body: `{"username":"eve","password":"s3cret"}`},
				{path: "/register", body: `{"username":"eve","password":"other"}`, code: rpc.CodeConflict},
				{path: "/register", body: `{"username":"","password":"pw"}`, code: rpc.CodeBadRequest},
				{path: "/login", body: `{"username":"eve","password":"wrong"}`, code: rpc.CodeUnauthorized},
				{path: "/login", body: `{"username":"eve","password":"s3cret"}`, want: map[string]any{"Token": nonEmpty}, save: map[string]string{"token": "Token"}},
				{path: "/login", body: `{"username":5,"password":"s3cret"}`, code: rpc.CodeBadRequest},
				{
					path: "/posts", body: `{"token":"{token}","text":"coffee time","images":["AAECAw=="],"videos":["BAUG"]}`,
					want: map[string]any{"Author": "eve", "Text": "coffee time", "MediaIDs": 2}, save: map[string]string{"post": "ID"},
				},
				{path: "/posts", body: `{"token":"{token}","text":"again","repost_of":"{post}"}`, want: map[string]any{"Author": "eve", "ID": nonEmpty}},
				{path: "/posts", body: `{"token":"{token}","text":"x","images":["not base64!"]}`, code: rpc.CodeBadRequest},
				{path: "/posts", body: `{"token":"bogus","text":"x"}`, code: rpc.CodeUnauthorized},
			},
		},
		{
			app: "ecommerce",
			setup: func(t *testing.T, handle any) map[string]string {
				if err := handle.(*ecommerce.Ecommerce).SeedItems([]ecommerce.Item{
					{ID: "hat-sun", Name: "Sun Hat", Tags: []string{"hats", "clearance"}, PriceCents: 1999, WeightGram: 180, Stock: 5},
				}); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			steps: []contractStep{
				{path: "/register", body: `{"username":"webby","password":"pw","balance_cents":99999999,"BalanceCents":99999999}`},
				{path: "/register", body: `{"username":"webby","password":"pw"}`, code: rpc.CodeConflict},
				{path: "/login", body: `{"username":"webby","password":"nope"}`, code: rpc.CodeUnauthorized},
				{path: "/login", body: `{"username":"webby","password":"pw"}`, want: map[string]any{"Token": nonEmpty}, save: map[string]string{"token": "Token"}},
				{path: "/orders", body: `{"token":"{token}","shipping":"standard"}`, code: rpc.CodeBadRequest}, // empty cart
				{path: "/cart", body: `{"token":"{token}","item_id":"hat-sun","quantity":1}`},
				{path: "/orders", body: `{"token":"{token}","shipping":"warp"}`, code: rpc.CodeBadRequest},
				{
					path: "/orders", body: `{"token":"{token}","shipping":"standard"}`,
					want: map[string]any{"Username": "webby", "Shipping": "standard", "DiscountCents": 999.0, "Status": "queued", "Lines": 1, "InvoiceID": nonEmpty},
				},
				{path: "/orders", body: `{"token":"bogus","shipping":"standard"}`, code: rpc.CodeUnauthorized},
			},
			after: func(t *testing.T, handle any) {
				var bal ecommerce.BalanceResp
				if err := handle.(*ecommerce.Ecommerce).User.Call(ctx, "Balance", ecommerce.AccountReq{Username: "webby"}, &bal); err != nil {
					t.Fatal(err)
				}
				// The opening balance, less the one order: a balance sent with
				// the registration is not the client's to set.
				if bal.BalanceCents >= 50000 || bal.BalanceCents < 50000-2000 {
					t.Fatalf("webby's balance after one order = %d, want a little under the 50000 opening", bal.BalanceCents)
				}
			},
		},
		{
			app: "media",
			setup: func(t *testing.T, handle any) map[string]string {
				if err := handle.(*media.Media).SeedMovie(media.Movie{ID: "mv-3", Title: "Deadlock", Year: 2020, Genre: "thriller"}, "Two mutexes, no way out.", nil, nil); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			steps: []contractStep{
				{path: "/register", body: `{"username":"rest-user","password":"pw","balance_cents":1}`},
				{path: "/register", body: `{"username":"rest-user","password":"pw"}`, code: rpc.CodeConflict},
				{path: "/login", body: `{"username":"rest-user","password":"pw"}`, want: map[string]any{"Token": nonEmpty}, save: map[string]string{"token": "Token"}},
				{
					path: "/reviews", body: `{"token":"{token}","title":"Deadlock","text":"tense","rating":8}`,
					want: map[string]any{"MovieID": "mv-3", "Username": "rest-user", "Text": "tense", "Rating": 8.0},
				},
				{path: "/reviews", body: `{"token":"{token}","title":"No Such Film","text":"?","rating":3}`, code: rpc.CodeNotFound},
				{path: "/reviews", body: `{"token":"bogus","title":"Deadlock","text":"tense","rating":8}`, code: rpc.CodeUnauthorized},
				{path: "/rent", body: `{"token":"{token}","movie_id":"mv-3"}`, want: map[string]any{"MovieID": "mv-3", "Username": "rest-user", "Token": nonEmpty}},
				{path: "/rent", body: `{"token":"bogus","movie_id":"mv-3"}`, code: rpc.CodeUnauthorized},
			},
			after: func(t *testing.T, handle any) {
				var bal media.BalanceResp
				if err := handle.(*media.Media).User.Call(ctx, "Balance", media.BalanceReq{Username: "rest-user"}, &bal); err != nil {
					t.Fatal(err)
				}
				if bal.BalanceCents >= 2000 || bal.BalanceCents <= 0 {
					t.Fatalf("rest-user's balance after one rental = %d, want under the 2000 opening", bal.BalanceCents)
				}
			},
		},
		{
			app: "banking",
			setup: func(t *testing.T, handle any) map[string]string {
				b := handle.(*banking.Banking)
				_, from, err := b.Onboard("weba", 60000_00, 800_00)
				if err != nil {
					t.Fatal(err)
				}
				_, to, err := b.Onboard("webb", 60000_00, 0)
				if err != nil {
					t.Fatal(err)
				}
				return map[string]string{"from": from, "to": to}
			},
			steps: []contractStep{
				{path: "/register", body: `{"username":"webc","password":"pw"}`, code: rpc.CodeNotFound}, // no such route
				{path: "/login", body: `{"username":"webc","password":"pw"}`, code: rpc.CodeUnauthorized},
				{path: "/login", body: `{"username":"weba","password":"wrong"}`, code: rpc.CodeUnauthorized},
				{path: "/login", body: `{"username":"weba","password":"pw-weba"}`, want: map[string]any{"Token": nonEmpty}, save: map[string]string{"token": "Token"}},
				{
					path: "/payments", body: `{"token":"{token}","from":"{from}","to":"{to}","amount_cents":10000,"description":"web transfer"}`,
					want: map[string]any{"TxnID": nonEmpty},
				},
				{path: "/payments", body: `{"token":"{token}","from":"{to}","to":"{from}","amount_cents":100,"description":"not mine"}`, code: rpc.CodeUnauthorized},
				{path: "/payments", body: `{"token":"{token}","from":"{from}","to":"{to}","amount_cents":"ten"}`, code: rpc.CodeBadRequest},
				{
					path: "/loans/personal", body: `{"token":"{token}","amount_cents":500000,"term_months":24,"monthly_debt_cents":0}`,
					want: map[string]any{"Approved": true, "AmountCents": 500000.0, "TermMonths": 24.0},
				},
				{
					path: "/loans/business", body: `{"token":"{token}","amount_cents":1000000,"term_months":36,"monthly_debt_cents":0,"annual_revenue_cents":50000000,"years_in_business":5}`,
					want: map[string]any{"Approved": true, "AmountCents": 1000000.0, "TermMonths": 36.0, "RateBps": 650.0},
				},
				{
					path: "/mortgages/quote", body: `{"token":"{token}","price_cents":30000000,"down_cents":6000000,"term_months":360,"monthly_debt_cents":0}`,
					want: map[string]any{"SchedulePrincipal": 12},
				},
				{path: "/cards", body: `{"token":"{token}"}`, want: map[string]any{"Owner": "weba", "Number": nonEmpty}, save: map[string]string{"card": "Number"}},
				{path: "/cards/charge", body: `{"token":"{token}","number":"{card}","amount_cents":1500}`, want: map[string]any{"Number": "{card}", "BalanceCents": 1500.0}},
				{path: "/cards/pay", body: `{"token":"{token}","number":"{card}","from_account":"{from}","amount_cents":500}`, want: map[string]any{"BalanceCents": 1000.0}},
			},
		},
	} {
		t.Run(tc.app, func(t *testing.T) {
			app, handle, err := dsb.Boot(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			defer app.Close()
			if c, ok := handle.(interface{ Close() }); ok {
				defer c.Close()
			}
			vars := map[string]string{}
			if tc.setup != nil {
				vars = tc.setup(t, handle)
				if vars == nil {
					vars = map[string]string{}
				}
			}
			fe, err := app.REST("contract", frontendOf(tc.app))
			if err != nil {
				t.Fatal(err)
			}
			fill := func(s string) string {
				for name, v := range vars {
					s = strings.ReplaceAll(s, "{"+name+"}", v)
				}
				return s
			}
			for i, st := range tc.steps {
				body := fill(st.body)
				var reply json.RawMessage
				err := fe.Do(ctx, "POST", st.path, json.RawMessage(body), &reply)
				if st.code != 0 {
					if !rpc.IsCode(err, st.code) {
						t.Fatalf("step %d: POST %s %s: %v, want code %d", i, st.path, body, err, st.code)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: POST %s %s: %v", i, st.path, body, err)
				}
				if len(st.want) == 0 && len(st.save) == 0 {
					continue
				}
				var got map[string]any
				if err := json.Unmarshal(reply, &got); err != nil {
					t.Fatalf("step %d: POST %s: reply %s is not a JSON object: %v", i, st.path, reply, err)
				}
				for key, want := range st.want {
					if msg := contractMismatch(got[key], want, fill); msg != "" {
						t.Errorf("step %d: POST %s: reply %s: %s %s", i, st.path, reply, key, msg)
					}
				}
				for name, key := range st.save {
					s, _ := got[key].(string)
					vars[name] = s
				}
			}
			if tc.after != nil {
				tc.after(t, handle)
			}
		})
	}
}

// contractMismatch says how a reply value misses what a step wants, or ""
// when it does not.
func contractMismatch(got, want any, fill func(string) string) string {
	switch w := want.(type) {
	case int:
		if arr, ok := got.([]any); !ok || len(arr) != w {
			return fmt.Sprintf("= %v, want an array of %d", got, w)
		}
	case string:
		s, ok := got.(string)
		if w == nonEmpty && (!ok || s == "") || w != nonEmpty && s != fill(w) {
			return fmt.Sprintf("= %v, want %q", got, fill(w))
		}
	default:
		if got != want {
			return fmt.Sprintf("= %v, want %v", got, want)
		}
	}
	return ""
}

// frontendOf names an app's REST front door in its registry.
func frontendOf(app string) string {
	return map[string]string{
		"social": "social.frontend", "ecommerce": "ecom.frontend",
		"media": "media.frontend", "banking": "bank.frontend",
	}[app]
}

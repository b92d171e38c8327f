package experiments

import "testing"

// TestRPCvsRESTShape holds §7's finding on every row of rpcrest: an RPC round
// trip is faster than a REST one carrying the same payload, the
// applications' typed timeline page included — however cheap a REST exchange
// has become, HTTP/1 framing and JSON cost more than a frame and the binary
// codec. It runs on the wall clock: CPU time is what it compares.
func TestRPCvsRESTShape(t *testing.T) {
	rows, err := rpcVsREST()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want the four byte payloads and the page", len(rows))
	}
	for _, row := range rows {
		t.Logf("%s: RPC %v, REST %v (%.1fx)", row.payload, row.rpc, row.rest, float64(row.rest)/float64(row.rpc))
		if row.rest <= row.rpc {
			t.Errorf("%s: REST %v is not slower than RPC %v", row.payload, row.rest, row.rpc)
		}
	}
}

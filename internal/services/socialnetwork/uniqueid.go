package socialnetwork

import (
	"fmt"
	"sync"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// UniqueIDReq asks for one snowflake-style ID.
type UniqueIDReq struct{}

// UniqueIDResp carries the generated ID.
type UniqueIDResp struct{ ID string }

// uniqueID issues time-ordered unique IDs: 41 bits of millisecond
// timestamp, 10 bits of machine ID, 12 bits of per-millisecond sequence —
// the classic snowflake layout the real service uses.
type uniqueID struct {
	machine uint64
	mu      sync.Mutex
	lastMs  int64
	seq     uint64
}

func registerUniqueID(srv *rpc.Server, machine uint64) {
	u := &uniqueID{machine: machine & 0x3FF}
	svcutil.Handle(srv, "Next", func(ctx *rpc.Ctx, req *UniqueIDReq) (*UniqueIDResp, error) {
		return &UniqueIDResp{ID: u.next()}, nil
	})
}

func (u *uniqueID) next() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	// A wall clock can step backwards; issuing under the older millisecond
	// would restart its sequence and could repeat an ID already handed out,
	// so the timestamp never falls below the last one issued.
	ms := max(time.Now().UnixMilli(), u.lastMs)
	if ms == u.lastMs {
		u.seq = (u.seq + 1) & 0xFFF
		if u.seq == 0 {
			// Sequence exhausted within this millisecond: wait for the next.
			time.Sleep(time.Until(time.UnixMilli(u.lastMs + 1)))
			ms = max(time.Now().UnixMilli(), u.lastMs+1)
		}
	} else {
		u.seq = 0
	}
	u.lastMs = ms
	id := uint64(ms)<<22 | u.machine<<12 | u.seq
	return fmt.Sprintf("%016x", id)
}

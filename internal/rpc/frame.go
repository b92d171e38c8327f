package rpc

import (
	"encoding/binary"
	"fmt"

	"dsb/internal/transport"
)

// Frame kinds. A request carries a method; a reply or error carries the
// originating sequence number only. A one-way frame is a request the server
// never answers: the client completes at send.
//
// The stream kinds carry one stream on a connection it has to itself, each
// frame bearing the opening frame's sequence number: StreamOpen is a request
// that starts a stream instead of a unary exchange, StreamItem carries one
// data frame in either direction, StreamEnd half-closes a direction (code 0
// = clean, nonzero = the coded error that ended it), and StreamCredit grants
// the peer `code` more item frames of send window (flow control).
const (
	kindRequest      = 0
	kindReply        = 1
	kindError        = 2
	kindOneWay       = 3
	kindStreamOpen   = 4
	kindStreamItem   = 5
	kindStreamEnd    = 6
	kindStreamCredit = 7
)

// The call header: a request-shaped frame carries one flags byte after its
// method, and after it the fields the flags announce, in this order. A frame
// with any other bit set does not parse.
const (
	flagDeadline = 1 << 0 // varint: the call's deadline, in unix nanoseconds
	flagTrace    = 1 << 1 // 8 + 8 bytes, little-endian: trace ID, span ID
	callFlags    = flagDeadline | flagTrace
)

// maxFrameSize bounds a single frame; movie "video" payloads in the suite
// stay within a few MB, mirroring production post-size limits.
const maxFrameSize = 16 << 20

// frame is one protocol message. A connection's reader owns the frame it
// reads into (frameReader.read); a frame being written lives on its writer's
// stack.
type frame struct {
	kind   byte
	seq    uint64
	method string // request-shaped frames only
	code   int64  // error, stream-end, and stream-credit frames
	// The call header, request-shaped frames only: the deadline in unix
	// nanoseconds (0 = none) and the caller's span (zero = untraced).
	deadline int64
	trace    transport.SpanContext
	payload  []byte
	// body, when non-nil, is a typed request or reply value that the
	// connWriter marshals directly into its write segment in place of
	// payload — the zero-copy leg of transport.Call.Body and of a typed
	// reply (Ctx.Reply). Only outgoing frames carry it; parsed frames always
	// materialize payload bytes.
	body any
}

// hasMethod reports whether kind carries a method name and the call header
// on the wire.
func hasMethod(kind byte) bool {
	return kind == kindRequest || kind == kindOneWay || kind == kindStreamOpen
}

// hasCode reports whether kind carries a code varint on the wire: the error
// code for kindError/kindStreamEnd, the credit grant for kindStreamCredit.
func hasCode(kind byte) bool {
	return kind == kindError || kind == kindStreamEnd || kind == kindStreamCredit
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint64(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("rpc: bad uvarint")
	}
	return x, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("rpc: bad varint")
	}
	return x, b[n:], nil
}

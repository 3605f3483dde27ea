package transport

import "cosmos/internal/core"

// The wire protocol: clients send Requests; the server answers each with
// one Response carrying the same ID, and additionally pushes every
// result tuple of subscribed queries as binary data frames (see wire.go)
// and one Response with Kind = MsgEnd when a subscription terminates
// server-side (graceful daemon shutdown). Client→server traffic is
// always gob-encoded on the single TCP connection; the server→client
// direction is marker-framed from the OK of the MsgHello that opens
// every connection onwards — that OK is the only unframed
// server→client message. The hello carries the wire format version; a
// peer that offers less than this build's, or submits without a hello,
// is refused with an error naming the version.

// MsgKind discriminates protocol messages.
type MsgKind uint8

// Protocol message kinds.
const (
	// Requests.
	MsgRegister MsgKind = iota // register a source stream (WireInfo)
	MsgPublish                 // publish one tuple (WireTuple)
	MsgSubmit                  // submit a CQL query (CQL)
	MsgCancel                  // cancel a query (QueryTag)
	MsgStats                   // fetch system statistics
	MsgCatalog                 // list the stream catalog
	MsgQuiesce                 // run the stabilisation barrier (readouts/tests)
	// Responses.
	MsgOK    // generic success
	MsgError // Error carries the message
	_        // retired: wire version 1's gob result push; the number stays reserved so later kinds keep their values
	MsgEnd   // asynchronous subscription end (QueryTag + optional Error)
	// Resilience extensions (PR 6). Appended so kind numbers stay
	// stable against older peers.
	MsgHello    // announce a resumable session (SessionID + ResumeTags); OK carries Epoch + adopted Tags
	MsgResume   // resume a subscription after reconnect (QueryTag + LastSeq); OK carries Seq + Epoch
	MsgPing     // keepalive probe; answered with MsgPong
	MsgPong     // keepalive answer
	MsgShutdown // pushed on graceful server shutdown: loss is terminal, do not reconnect
)

// Request is a client → server message.
type Request struct {
	ID   uint64
	Kind MsgKind
	// Register
	Info WireInfo
	Node int
	// Publish
	Tuple WireTuple
	// Submit
	CQL      string
	UserNode int
	// Cancel / Resume
	QueryTag string
	// Hello
	SessionID  string   // client-chosen stable identity of a resumable session
	ResumeTags []string // subscriptions the client intends to resume
	// Resume
	LastSeq uint64 // highest result sequence the client saw for QueryTag
	// Hello: the highest wire format version the client speaks (0 from
	// a peer older than the negotiation).
	WireVersion int
}

// Response is a server → client message.
type Response struct {
	ID   uint64 // echoes the request ID; 0 for pushed results/ends
	Kind MsgKind
	// Error (also set on MsgEnd when the subscription died abnormally)
	Error string
	// Submit success; also identifies pushed MsgEnd messages
	QueryTag string
	// Stats
	Stats SystemStats
	// Catalog
	Infos []WireInfo
	// Resilience: on a MsgResume OK, the resume point — the result
	// sequence already assigned to the query's latest emission.
	Seq uint64
	// Session epoch, bumped on every adoption (MsgHello/MsgResume OKs).
	Epoch uint64
	// Subscriptions adopted from a detached session (MsgHello OK).
	Tags []string
	// The wire format version the connection speaks from here on
	// (MsgHello OK). 0 or 1 from a server older than binary framing.
	WireVersion int
}

// SystemStats is the transport-independent statistics shape; the daemon
// ships core's snapshot verbatim (all fields are plain data, so it gob-
// encodes as-is, per-link counters included).
type SystemStats = core.SystemStats

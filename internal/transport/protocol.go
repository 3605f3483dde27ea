package transport

import "cosmos/internal/core"

// The wire protocol: clients send Requests; the server answers each with
// one Response carrying the same ID, and additionally pushes every
// result tuple of subscribed queries as binary data frames and one
// Response with Kind = MsgEnd when a subscription terminates server-side
// (graceful daemon shutdown). Requests and Responses are gob-encoded on
// the single TCP connection; tuples never are — published tuples travel
// client→server in the same binary 'D' frames results travel back in
// (wire.go), answered by cumulative 'A' acks instead of Responses. Both
// directions are marker-framed from the MsgHello that opens every
// connection onwards: the hello and its OK are the only unframed
// messages. The hello carries the wire format version; a peer that
// offers less than this build's, or submits or publishes without a
// hello, is refused with an error naming the version.

// MsgKind discriminates protocol messages.
type MsgKind uint8

// Protocol message kinds.
const (
	// Requests.
	MsgRegister MsgKind = iota // register a source stream (WireInfo); with Source set, also opens it for publishing
	_                          // retired: wire version 2's gob publish request; the number stays reserved so later kinds keep their values
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
	// Binary publish (wire version 3).
	MsgOpenSource // bind Source to the registered stream Stream on this connection; OK carries its WireInfo
)

// Request is a client → server message.
type Request struct {
	ID   uint64
	Kind MsgKind
	// Register
	Info WireInfo
	Node int
	// Register / OpenSource: the client-chosen id this connection's
	// publish 'D' frames name the source by (0 on a register: do not
	// open). Stable across a session's reconnects.
	Source uint32
	// OpenSource
	Stream string
	// Submit
	CQL      string
	UserNode int
	// Cancel / Resume
	QueryTag string
	// Hello
	SessionID  string   // client-chosen stable identity of a resumable session
	ResumeTags []string // subscriptions the client intends to resume
	// Resume: the highest result sequence the client saw for QueryTag.
	// Hello: the highest publish sequence a server has acknowledged to
	// this session — a server that no longer holds the session resumes
	// its publish count from here.
	LastSeq uint64
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
	// Catalog; OpenSource (the one opened stream)
	Infos []WireInfo
	// Resilience: on a MsgResume OK, the resume point — the result
	// sequence already assigned to the query's latest emission. On a
	// MsgHello OK, the session's applied publish sequence: the client
	// resends only what it published beyond it.
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

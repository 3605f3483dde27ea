package core

import (
	"cosmos/internal/cbn"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// netClient is the client surface of the data layer a system component
// (source port, processor, delivery proxy) holds — satisfied by both
// cbn.SimClient (synchronous, deterministic) and cbn.LiveClient
// (concurrent). Publish must be safe for concurrent use on the live
// transport; on the simulated transport the single-threaded network
// imposes single-caller discipline, which System honours by running
// every plan inline on the publishing goroutine.
type netClient interface {
	Advertise(streamName string)
	Subscribe(p *profile.Profile)
	// Publish hands one tuple into the network. Both implementations
	// are audited ingest boundaries: SimClient routes synchronously
	// through the (hotpath-checked) broker, LiveClient enqueues on the
	// ingress ring under its credit budget.
	//
	//cosmos:hotpath-ok
	Publish(t stream.Tuple) error
	SetOnTuple(fn func(stream.Tuple))
	Iface() cbn.IfaceID
	// Close releases the attachment (delivery stops; on the live
	// transport the pump goroutine and broker endpoint are reclaimed).
	Close()
}

// transport is the network surface the system assembles against: client
// attachment plus the control hooks query management needs. SimNet and
// LiveNet both provide it (via the adapters below), so the same
// processor/distribution/delivery components deploy over either.
type transport interface {
	AttachClient(node int) (netClient, error)
	Broker(node int) *cbn.Broker
	PruneStream(name string)
	TotalDataBytes() int64
}

// simTransport adapts the deterministic simulated network.
type simTransport struct{ net *cbn.SimNet }

func (s simTransport) AttachClient(node int) (netClient, error) {
	return s.net.AttachClient(node), nil
}
func (s simTransport) Broker(node int) *cbn.Broker { return s.net.Broker(node) }
func (s simTransport) PruneStream(name string)     { s.net.PruneStream(name) }
func (s simTransport) TotalDataBytes() int64       { return s.net.TotalDataBytes() }

// liveTransport adapts the concurrent goroutine-per-broker network.
type liveTransport struct{ net *cbn.LiveNet }

func (l liveTransport) AttachClient(node int) (netClient, error) {
	return l.net.AttachClient(node)
}
func (l liveTransport) Broker(node int) *cbn.Broker { return l.net.Broker(node) }
func (l liveTransport) PruneStream(name string)     { l.net.PruneStream(name) }
func (l liveTransport) TotalDataBytes() int64       { return l.net.TotalDataBytes() }

package sweep

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/wire"
	"faultmem/internal/yield"
)

// Payload codecs. Every message encodes with internal/wire's appenders —
// 8-byte little-endian integers, count-prefixed strings and blobs, the
// forms the shard values inside Results use — and decodes with a
// wire.Reader, which is strict: every count is validated against the
// remaining payload and leftover bytes are refused, so a
// corrupted-but-checksum-colliding or maliciously shaped payload fails
// loudly at the decode boundary instead of smuggling garbage into a
// campaign. Decoders also refuse every value no encoder writes, so a
// payload that decodes has exactly one encoding.

// Message is one protocol message.
type Message interface {
	msgType() MsgType
	// appendTo appends the message's payload to b.
	appendTo(b []byte) []byte
	// readFrom decodes the payload from r, failing r on any value no
	// encoder writes.
	readFrom(r *wire.Reader)
}

// DecodeMessage decodes a validated frame's payload into its message.
// Failures are recoverable *FrameErrors: the frame boundary was sound,
// its contents were not, and the connection survives.
func DecodeMessage(t MsgType, payload []byte) (Message, error) {
	if !t.valid() {
		return nil, &FrameError{Reason: fmt.Sprintf("%v payload: no decoder for frame type", t)}
	}
	m := messages[t].new()
	r := wire.NewReader(payload)
	m.readFrom(r)
	if err := r.Close(); err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("%v payload: %v", t, err)}
	}
	return m, nil
}

// Spec is the replayable description of one campaign: every runner knob
// a worker or a campaign server needs to reproduce the run exactly. It is
// immutable once built.
type Spec struct {
	Seed    *int64 // nil: the experiment's own base seed
	Quick   bool
	Workers int
	Accum   yield.AccumMode
	Bins    int
	Params  []byte // JSON override, empty = experiment defaults
}

// newSpec pins r's knobs (a nil r gives the zero Spec). A params
// override that is not already JSON bytes crosses the wire as its JSON
// encoding: the replaying side decodes it strictly over the defaults,
// and float64 JSON round-trips are exact.
func newSpec(r *exp.Runner) (Spec, error) {
	if r == nil {
		return Spec{}, nil
	}
	s := Spec{Quick: r.Quick, Workers: r.Workers, Accum: r.Accum, Bins: r.Bins}
	if r.Seed != nil {
		seed := *r.Seed
		s.Seed = &seed
	}
	switch p := r.Params.(type) {
	case nil:
	case json.RawMessage:
		s.Params = append([]byte(nil), p...)
	case []byte:
		s.Params = append([]byte(nil), p...)
	default:
		b, err := json.Marshal(p)
		if err != nil {
			return Spec{}, fmt.Errorf("sweep: params override is not wireable: %w", err)
		}
		s.Params = b
	}
	return s, nil
}

// Runner returns a fresh runner with the spec's knobs.
func (s Spec) Runner() *exp.Runner {
	r := &exp.Runner{Quick: s.Quick, Workers: s.Workers, Accum: s.Accum, Bins: s.Bins}
	if s.Seed != nil {
		seed := *s.Seed
		r.Seed = &seed
	}
	if len(s.Params) > 0 {
		r.Params = json.RawMessage(s.Params)
	}
	return r
}

// Spec flag bits.
const (
	specSeed  = 1 << 0 // Seed is set
	specQuick = 1 << 1 // run the experiment's quick budget
)

func (s *Spec) appendTo(b []byte) []byte {
	var flags byte
	var seed int64
	if s.Seed != nil {
		flags, seed = specSeed, *s.Seed
	}
	if s.Quick {
		flags |= specQuick
	}
	b = append(b, flags)
	b = wire.AppendUint64(b, uint64(seed))
	b = wire.AppendInt(b, s.Workers)
	b = wire.AppendInt(b, int(s.Accum))
	b = wire.AppendInt(b, s.Bins)
	return wire.AppendString(b, s.Params)
}

func (s *Spec) readFrom(r *wire.Reader) {
	flags := r.Byte()
	seed := int64(r.Uint64())
	s.Workers = r.Int()
	s.Accum = yield.AccumMode(r.Int())
	s.Bins = r.Int()
	s.Params = r.Bytes()
	s.Quick = flags&specQuick != 0
	switch {
	case flags&^(specSeed|specQuick) != 0:
		r.Fail("unknown spec flags %#02x", flags)
	case flags&specSeed != 0:
		s.Seed = &seed
	case seed != 0:
		r.Fail("seed %d without the seed flag", seed)
	}
}

// experimentOf names the registry experiment an engine run belongs to:
// the tag's first component ("experiment" or "experiment/stage").
func experimentOf(tag string) string {
	name, _, _ := strings.Cut(tag, "/")
	return name
}

// Hello opens a worker connection. Auth carries the listener's shared
// secret ("" when the server runs open).
type Hello struct{ Auth string }

func (m *Hello) appendTo(b []byte) []byte { return wire.AppendString(b, m.Auth) }

func (m *Hello) readFrom(r *wire.Reader) { m.Auth = r.Str() }

// minLease is the shortest lease a Welcome carries: the worker heartbeats
// every third of it, and a ticker period must be positive.
const minLease = time.Millisecond

// Welcome acknowledges a Hello and carries the coordinator's shard lease,
// which sets the worker's clocks: it heartbeats every third of the lease
// and drops a link that stays silent for four heartbeats.
type Welcome struct{ Lease time.Duration }

func (m *Welcome) appendTo(b []byte) []byte { return wire.AppendUint64(b, uint64(m.Lease)) }

func (m *Welcome) readFrom(r *wire.Reader) {
	if m.Lease = time.Duration(r.Uint64()); m.Lease < minLease {
		r.Fail("lease %v below %v", m.Lease, minLease)
	}
}

// Job assigns one shard of a campaign to a worker. Tag names the engine
// run (and, by its first component, the experiment) and Shard/Shards pin
// the one shard to compute; Spec lets the worker replay the exact
// campaign. Shards carries the coordinator's resolved count so a worker
// whose own plan would differ (machine-dependent defaults) refuses the
// job instead of returning a shard of a different partition.
type Job struct {
	ID     uint64
	Tag    string
	Shard  int
	Shards int
	Spec   Spec
}

func (m *Job) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.ID)
	b = wire.AppendString(b, m.Tag)
	b = wire.AppendInt(b, m.Shard)
	b = wire.AppendInt(b, m.Shards)
	return m.Spec.appendTo(b)
}

func (m *Job) readFrom(r *wire.Reader) {
	m.ID, m.Tag = r.Uint64(), r.Str()
	m.Shard, m.Shards = r.Int(), r.Int()
	m.Spec.readFrom(r)
	switch {
	case experimentOf(m.Tag) == "":
		r.Fail("empty experiment name in tag %q", m.Tag)
	case m.Shards <= 0:
		r.Fail("non-positive shard count %d", m.Shards)
	case m.Shard < 0 || m.Shard >= m.Shards:
		r.Fail("shard %d out of range [0,%d)", m.Shard, m.Shards)
	}
}

// Result delivers one computed shard: the binary form of the shard's
// value (mc.ShardJob.Encode), tagged with the job it answers. Shard rides
// along redundantly so the coordinator can cross-check the binding
// before merging.
type Result struct {
	ID    uint64
	Shard int
	Data  []byte
}

func (m *Result) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.ID)
	b = wire.AppendInt(b, m.Shard)
	return wire.AppendString(b, m.Data)
}

func (m *Result) readFrom(r *wire.Reader) { m.ID, m.Shard, m.Data = r.Uint64(), r.Int(), r.Bytes() }

// JobError reports that a worker could not compute an assigned shard.
// The coordinator falls back to computing that shard locally.
type JobError struct {
	ID  uint64
	Msg string
}

func (m *JobError) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.ID)
	return wire.AppendString(b, m.Msg)
}

func (m *JobError) readFrom(r *wire.Reader) { m.ID, m.Msg = r.Uint64(), r.Str() }

// Heartbeat refreshes the leases of the listed in-flight jobs, adopting
// those whose connection has closed. The coordinator answers with an
// empty Heartbeat (a pong), so a silent-but-alive connection is
// distinguishable from a dead one in both directions.
type Heartbeat struct{ InFlight []uint64 }

func (m *Heartbeat) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, uint64(len(m.InFlight)))
	for _, id := range m.InFlight {
		b = wire.AppendUint64(b, id)
	}
	return b
}

func (m *Heartbeat) readFrom(r *wire.Reader) {
	m.InFlight = make([]uint64, r.Count(8))
	for i := range m.InFlight {
		m.InFlight[i] = r.Uint64()
	}
}

// Cancel tells a worker to abandon the listed jobs — every in-flight job
// when the list is empty. Sent when a campaign's context dies or a lease
// expired and the shard was reassigned.
type Cancel struct{ IDs []uint64 }

// Cancel's payload has Heartbeat's form: a count and the job IDs.
func (m *Cancel) appendTo(b []byte) []byte { return (&Heartbeat{InFlight: m.IDs}).appendTo(b) }

func (m *Cancel) readFrom(r *wire.Reader) {
	var h Heartbeat
	h.readFrom(r)
	m.IDs = h.InFlight
}

// Done tells a worker the coordinator is shutting down for good: exit
// cleanly instead of reconnecting.
type Done struct{}

func (m *Done) appendTo(b []byte) []byte { return b }
func (m *Done) readFrom(*wire.Reader)    {}

func (m *Hello) msgType() MsgType     { return MsgHello }
func (m *Welcome) msgType() MsgType   { return MsgWelcome }
func (m *Job) msgType() MsgType       { return MsgJob }
func (m *Result) msgType() MsgType    { return MsgResult }
func (m *JobError) msgType() MsgType  { return MsgJobError }
func (m *Heartbeat) msgType() MsgType { return MsgHeartbeat }
func (m *Cancel) msgType() MsgType    { return MsgCancel }
func (m *Done) msgType() MsgType      { return MsgDone }

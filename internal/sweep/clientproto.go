package sweep

import (
	"crypto/sha256"
	"crypto/subtle"

	"faultmem/internal/wire"
)

// The client half of the protocol: the campaign-submission messages of
// `faultmem serve`. They ride the same frame layer and codec as the
// worker messages and share the listening port — the first frame's type
// (Hello vs ClientHello) routes a connection to the worker pool or the
// client surface.

// AuthEqual reports whether a presented shared secret matches the
// configured one, in constant time (both sides are hashed first so the
// comparison leaks neither content nor length). An empty configured
// secret disables authentication entirely.
func AuthEqual(want, got string) bool {
	if want == "" {
		return true
	}
	hw := sha256.Sum256([]byte(want))
	hg := sha256.Sum256([]byte(got))
	return subtle.ConstantTimeCompare(hw[:], hg[:]) == 1
}

// ClientHello opens a client connection. An empty token requests a new
// client session; a token from a previous ClientWelcome resumes that
// session — re-attaching its running jobs and draining any final
// results buffered while the client was disconnected. Auth carries the
// listener's shared secret when one is configured.
type ClientHello struct {
	Token string
	Auth  string
}

func (m *ClientHello) appendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Token)
	return wire.AppendString(b, m.Auth)
}

func (m *ClientHello) readFrom(r *wire.Reader) { m.Token, m.Auth = r.Str(), r.Str() }

// ClientWelcome acknowledges a ClientHello and carries the session
// token the client presents on reconnect. Draining tells the client the
// server is winding down: running jobs will finish, new submissions are
// rejected.
type ClientWelcome struct {
	Token    string
	Draining bool
}

func (m *ClientWelcome) appendTo(b []byte) []byte {
	var draining byte
	if m.Draining {
		draining = 1
	}
	return append(wire.AppendString(b, m.Token), draining)
}

func (m *ClientWelcome) readFrom(r *wire.Reader) {
	m.Token = r.Str()
	draining := r.Byte()
	m.Draining = draining == 1
	switch {
	case m.Token == "":
		r.Fail("empty session token")
	case draining > 1:
		r.Fail("draining byte %d", draining)
	}
}

// Submit asks the server to admit one campaign: a registry name plus its
// Spec. Ref correlates the SubmitReply; Priority weights the fair-share
// scheduler (below 1 means the default weight 1; higher gets
// proportionally more concurrent shards); Label is a free-form client
// annotation echoed in status listings.
type Submit struct {
	Ref        uint64
	Experiment string
	Label      string
	Priority   int
	Spec       Spec
}

func (m *Submit) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.Ref)
	b = wire.AppendString(b, m.Experiment)
	b = wire.AppendString(b, m.Label)
	b = wire.AppendInt(b, m.Priority)
	return m.Spec.appendTo(b)
}

func (m *Submit) readFrom(r *wire.Reader) {
	m.Ref, m.Experiment, m.Label, m.Priority = r.Uint64(), r.Str(), r.Str(), r.Int()
	m.Spec.readFrom(r)
	if m.Experiment == "" {
		r.Fail("empty experiment name")
	}
}

// SubmitReply answers a Submit: the admitted job ID, or a rejection
// (unknown experiment, server draining) carried in ErrMsg.
type SubmitReply struct {
	Ref    uint64
	JobID  uint64
	ErrMsg string
}

func (m *SubmitReply) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.Ref)
	b = wire.AppendUint64(b, m.JobID)
	return wire.AppendString(b, m.ErrMsg)
}

func (m *SubmitReply) readFrom(r *wire.Reader) {
	m.Ref, m.JobID, m.ErrMsg = r.Uint64(), r.Uint64(), r.Str()
}

// ControlVerb enumerates the job-lifecycle verbs of MsgJobControl.
type ControlVerb byte

const (
	// VerbStatus asks for one job's status (JobID selects it).
	VerbStatus ControlVerb = iota + 1
	// VerbCancel cancels one running job (its final message then reports
	// the cancellation); already-finished jobs are a no-op.
	VerbCancel
	// VerbList asks for the status of every job the server knows.
	VerbList
	verbEnd
)

func (v ControlVerb) valid() bool { return v >= VerbStatus && v < verbEnd }

func (v ControlVerb) String() string {
	switch v {
	case VerbStatus:
		return "status"
	case VerbCancel:
		return "cancel"
	case VerbList:
		return "list"
	default:
		return "verb(?)"
	}
}

// JobControl is one status/cancel/list request. JobID is ignored for
// VerbList.
type JobControl struct {
	Ref   uint64
	Verb  ControlVerb
	JobID uint64
}

func (m *JobControl) appendTo(b []byte) []byte {
	b = append(wire.AppendUint64(b, m.Ref), byte(m.Verb))
	return wire.AppendUint64(b, m.JobID)
}

func (m *JobControl) readFrom(r *wire.Reader) {
	m.Ref, m.Verb, m.JobID = r.Uint64(), ControlVerb(r.Byte()), r.Uint64()
	if !m.Verb.valid() {
		r.Fail("unknown verb %d", byte(m.Verb))
	}
}

// JobInfo answers a JobControl: a JSON status blob (one serve.JobStatus
// for status/cancel, an array for list), or an error (unknown job).
type JobInfo struct {
	Ref    uint64
	ErrMsg string
	Data   []byte // JSON
}

func (m *JobInfo) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.Ref)
	b = wire.AppendString(b, m.ErrMsg)
	return wire.AppendString(b, m.Data)
}

func (m *JobInfo) readFrom(r *wire.Reader) { m.Ref, m.ErrMsg, m.Data = r.Uint64(), r.Str(), r.Bytes() }

// Snapshot is one periodic partial-state push for a running job: Seq
// increments per push so a resumed client can discard stale snapshots,
// and Data is the JSON-encoded serve.JobSnapshot (stage progress and
// merged-sample counts so far).
type Snapshot struct {
	JobID uint64
	Seq   uint64
	Data  []byte // JSON
}

func (m *Snapshot) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.JobID)
	b = wire.AppendUint64(b, m.Seq)
	return wire.AppendString(b, m.Data)
}

func (m *Snapshot) readFrom(r *wire.Reader) {
	m.JobID, m.Seq, m.Data = r.Uint64(), r.Uint64(), r.Bytes()
}

// Final is one job's terminal push: the full ExperimentResult JSON
// (byte-identical to a local `faultmem run -json` of the same campaign)
// on success, or the error that ended the job. It is buffered for a
// disconnected client and re-delivered on session resume.
type Final struct {
	JobID  uint64
	ErrMsg string
	Result []byte // ExperimentResult JSON
}

func (m *Final) appendTo(b []byte) []byte {
	b = wire.AppendUint64(b, m.JobID)
	b = wire.AppendString(b, m.ErrMsg)
	return wire.AppendString(b, m.Result)
}

func (m *Final) readFrom(r *wire.Reader) {
	m.JobID, m.ErrMsg, m.Result = r.Uint64(), r.Str(), r.Bytes()
}

func (m *ClientHello) msgType() MsgType   { return MsgClientHello }
func (m *ClientWelcome) msgType() MsgType { return MsgClientWelcome }
func (m *Submit) msgType() MsgType        { return MsgSubmit }
func (m *SubmitReply) msgType() MsgType   { return MsgSubmitReply }
func (m *JobControl) msgType() MsgType    { return MsgJobControl }
func (m *JobInfo) msgType() MsgType       { return MsgJobInfo }
func (m *Snapshot) msgType() MsgType      { return MsgSnapshot }
func (m *Final) msgType() MsgType         { return MsgFinal }

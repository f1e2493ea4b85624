package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"faultmem/internal/yield"
)

// roundTripMsg frames a message, re-parses the frame, and decodes the
// payload — the full wire path.
func roundTripMsg(t *testing.T, m Message) Message {
	t.Helper()
	raw := EncodeMessage(m)
	typ, payload, n, err := ParseFrame(raw)
	if err != nil || n != len(raw) {
		t.Fatalf("frame of %T did not parse: %v", m, err)
	}
	if typ != m.msgType() {
		t.Fatalf("frame type %v, want %v", typ, m.msgType())
	}
	back, err := DecodeMessage(typ, payload)
	if err != nil {
		t.Fatalf("decode of %T: %v", m, err)
	}
	return back
}

// TestMessageRoundTrips: every message type survives the full
// encode→frame→parse→decode path unchanged.
func TestMessageRoundTrips(t *testing.T) {
	seed := int64(-42)
	msgs := []Message{
		&Hello{},
		&Hello{Token: "resume-me"},
		&Welcome{Token: "a1b2c3d4"},
		&Job{ID: 7, Experiment: "fig5", Tag: "fig5", Shard: 3, Shards: 64,
			HasSeed: true, Seed: seed, Quick: true, Workers: 8,
			Accum: yield.AccumHist, Bins: 512, Params: []byte(`{"CDF":{"Trun":10}}`)},
		&Job{ID: 8, Experiment: "fig7", Tag: "fig7/knn", Shard: 0, Shards: 1},
		&Result{ID: 7, Shard: 3, Data: bytes.Repeat([]byte{0x00, 0xFF}, 500)},
		&Result{ID: 9, Shard: 0},
		&JobError{ID: 7, Msg: "shard type has no binary form"},
		&Heartbeat{},
		&Heartbeat{InFlight: []uint64{1, 2, 3, 1 << 63}},
		&Cancel{},
		&Cancel{IDs: []uint64{42}},
		&Done{},
	}
	for _, m := range msgs {
		back := roundTripMsg(t, m)
		// Empty slices may come back nil; normalize before comparing.
		if !reflect.DeepEqual(normalize(m), normalize(back)) {
			t.Fatalf("round trip of %T:\n got %+v\nwant %+v", m, back, m)
		}
	}
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case *Job:
		c := *v
		if len(c.Params) == 0 {
			c.Params = nil
		}
		return &c
	case *Result:
		c := *v
		if len(c.Data) == 0 {
			c.Data = nil
		}
		return &c
	case *Heartbeat:
		c := *v
		if len(c.InFlight) == 0 {
			c.InFlight = nil
		}
		return &c
	case *Cancel:
		c := *v
		if len(c.IDs) == 0 {
			c.IDs = nil
		}
		return &c
	}
	return m
}

// mustDecodeErr asserts a payload is rejected with a recoverable
// *FrameError — payload-shape failures never kill the connection.
func mustDecodeErr(t *testing.T, name string, typ MsgType, payload []byte) {
	t.Helper()
	_, err := DecodeMessage(typ, payload)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("%s: decode returned %v, want *FrameError", name, err)
	}
	if fe.Fatal {
		t.Fatalf("%s: payload-shape error classified fatal: %v", name, fe)
	}
}

// TestDecodeRejectsCorruptPayloads is the payload-level adversarial
// catalogue, after the idiom of length-prefix protocol test suites:
// every variable-length field lies about its size, overruns the
// remaining buffer, or leaves trailing bytes.
func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	goodJob := (&Job{ID: 1, Experiment: "fig5", Tag: "fig5", Shard: 0, Shards: 64}).encode()

	type tc struct {
		name    string
		typ     MsgType
		payload []byte
	}
	cases := []tc{
		{"hello: token length beyond payload", MsgHello, []byte{10, 'a', 'b'}},
		{"hello: trailing bytes", MsgHello, []byte{1, 'a', 'x'}},
		{"welcome: empty token", MsgWelcome, []byte{0}},
		{"welcome: truncated", MsgWelcome, []byte{}},
		{"job: empty payload", MsgJob, []byte{}},
		{"job: truncated after id", MsgJob, goodJob[:8]},
		{"job: truncated mid-name", MsgJob, goodJob[:10]},
		{"job: trailing bytes", MsgJob, append(append([]byte{}, goodJob...), 0xEE)},
		{"result: truncated blob", MsgResult, func() []byte {
			b := (&Result{ID: 1, Shard: 2, Data: []byte("abcdef")}).encode()
			return b[:len(b)-3]
		}()},
		{"result: blob length beyond payload", MsgResult, func() []byte {
			b := (&Result{ID: 1, Shard: 2, Data: []byte("abc")}).encode()
			binary.BigEndian.PutUint32(b[12:16], 1000)
			return b
		}()},
		{"joberror: truncated", MsgJobError, []byte{0, 0, 0, 0}},
		{"heartbeat: id list beyond payload", MsgHeartbeat, []byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"heartbeat: absurd id count", MsgHeartbeat, []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{"cancel: trailing bytes", MsgCancel, append((&Cancel{IDs: []uint64{1}}).encode(), 0)},
		{"done: non-empty payload", MsgDone, []byte{1}},
	}

	// Job field-validation cases: structurally sound, semantically absurd.
	for _, mut := range []struct {
		name string
		mod  func(*Job)
	}{
		{"job: empty experiment name", func(j *Job) { j.Experiment = "" }},
		{"job: zero shard count", func(j *Job) { j.Shards = 0 }},
		{"job: shard out of range", func(j *Job) { j.Shard = 64 }},
	} {
		j := &Job{ID: 1, Experiment: "fig5", Tag: "fig5", Shard: 0, Shards: 64}
		mut.mod(j)
		cases = append(cases, tc{mut.name, MsgJob, j.encode()})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mustDecodeErr(t, c.name, c.typ, c.payload)
		})
	}
}

// TestDecodedBlobsDoNotAliasInput: decoded params and data must be
// copies, so a recycled read buffer cannot mutate an in-flight message.
func TestDecodedBlobsDoNotAliasInput(t *testing.T) {
	payload := (&Result{ID: 1, Shard: 0, Data: []byte("precious")}).encode()
	m, err := DecodeMessage(MsgResult, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xDD
	}
	if got := string(m.(*Result).Data); got != "precious" {
		t.Fatalf("decoded data aliases the wire buffer: %q", got)
	}
}

// FuzzDecodeMessage: no payload may crash a decoder a peer can reach,
// and whatever decodes re-encodes to a payload that decodes to the same
// message. The bytes need not match: Job and Submit ignore unknown flag
// bits, and Hello accepts an explicit empty auth field. The seeds are
// every message type's encoding, each truncation of it, and each
// single-byte overwrite with 0xFF, which makes every length prefix lie.
func FuzzDecodeMessage(f *testing.F) {
	seed := int64(-42)
	for _, m := range []Message{
		&Hello{},
		&Hello{Token: "resume-me", Auth: "s3cret"},
		&Welcome{Token: "a1b2c3d4"},
		&Job{ID: 7, Experiment: "fig5", Tag: "fig5/x", Shard: 3, Shards: 64, HasSeed: true, Seed: seed,
			Quick: true, Workers: 8, Accum: yield.AccumHist, Bins: 512, Params: []byte(`{"A":1}`)},
		&Result{ID: 7, Shard: 3, Data: []byte("shard")},
		&JobError{ID: 7, Msg: "no"},
		&Heartbeat{InFlight: []uint64{1, 2}},
		&Cancel{IDs: []uint64{42}},
		&Done{},
		&ClientHello{Token: "tok", Auth: "s3cret"},
		&ClientWelcome{Token: "tok", Draining: true},
		&Submit{Ref: 1, Experiment: "fig7", Label: "l", Priority: 4, HasSeed: true, Seed: seed,
			Quick: true, Workers: 2, Accum: yield.AccumExact, Bins: 64, Params: []byte(`[]`)},
		&SubmitReply{Ref: 1, JobID: 2, ErrMsg: "no"},
		&JobControl{Ref: 1, Verb: VerbCancel, JobID: 3},
		&JobInfo{Ref: 1, ErrMsg: "no", Data: []byte(`{}`)},
		&Snapshot{JobID: 1, Seq: 2, Data: []byte(`{}`)},
		&Final{JobID: 1, ErrMsg: "no", Result: []byte(`{}`)},
	} {
		typ, p := byte(m.msgType()), m.payload()
		f.Add(typ, p)
		for i := range p {
			f.Add(typ, p[:i])
			lie := append([]byte(nil), p...)
			lie[i] = 0xFF
			f.Add(typ, lie)
		}
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		m, err := DecodeMessage(MsgType(typ), payload)
		if err != nil {
			return
		}
		if m.msgType() != MsgType(typ) {
			t.Fatalf("frame type %d decoded as %T", typ, m)
		}
		back, err := DecodeMessage(m.msgType(), m.payload())
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("re-encoded %T decodes differently:\n got %+v\nwant %+v", m, back, m)
		}
	})
}

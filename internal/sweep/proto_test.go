package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/wire"
	"faultmem/internal/yield"
)

// roundTripMsg writes a message, reads the frame back, and decodes the
// payload — the full wire path.
func roundTripMsg(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := readFrame(&buf)
	if err != nil || buf.Len() != 0 {
		t.Fatalf("frame of %T did not read back: %v", m, err)
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

// fullSpec sets every knob of a Spec.
func fullSpec() Spec {
	seed := int64(-42)
	return Spec{Seed: &seed, Quick: true, Workers: 8, Accum: yield.AccumHist, Bins: 512,
		Params: []byte(`{"CDF":{"Trun":10}}`)}
}

// TestMessageRoundTrips: every message type survives the full
// encode→frame→read→decode path unchanged.
func TestMessageRoundTrips(t *testing.T) {
	long := strings.Repeat("x", 300)
	msgs := []Message{
		&Hello{},
		&Hello{Auth: long},
		&Welcome{Lease: 3 * time.Second},
		&Welcome{Lease: time.Millisecond},
		&Job{ID: 7, Tag: "fig5", Shard: 3, Shards: 64, Spec: fullSpec()},
		&Job{ID: 8, Tag: "fig7/knn", Shard: 0, Shards: 1},
		&Result{ID: 7, Shard: 3, Data: bytes.Repeat([]byte{0x00, 0xFF}, 500)},
		&Result{ID: 9, Shard: 0},
		&JobError{ID: 7, Msg: "shard type has no binary form"},
		&Heartbeat{},
		&Heartbeat{InFlight: []uint64{1, 2, 3, 1 << 63}},
		&Cancel{},
		&Cancel{IDs: []uint64{42}},
		&Done{},
		&ClientHello{Token: "tok", Auth: long},
		&ClientWelcome{Token: "tok", Draining: true},
		&Submit{Ref: 1, Experiment: "fig4", Label: long, Priority: -3, Spec: fullSpec()},
		&SubmitReply{Ref: 1, JobID: 2, ErrMsg: "no"},
		&JobControl{Ref: 1, Verb: VerbList},
		&JobInfo{Ref: 1, Data: []byte(`[]`)},
		&Snapshot{JobID: 1, Seq: 2, Data: []byte(`{}`)},
		&Final{JobID: 1, ErrMsg: "no"},
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

// TestSpecRoundTrips sends each runner knob through Runner → Spec →
// bytes → Spec → Runner. A params override of any accepted type comes
// back as its JSON bytes.
func TestSpecRoundTrips(t *testing.T) {
	zero, seven := int64(0), int64(7)
	type fig5Override struct{ Trun float64 }
	cases := []struct {
		name   string
		in     *exp.Runner
		params string // the JSON the replayed runner carries ("" = none)
	}{
		{"nil runner", nil, ""},
		{"zero runner", &exp.Runner{}, ""},
		{"seed 0", &exp.Runner{Seed: &zero}, ""},
		{"seed 7", &exp.Runner{Seed: &seven}, ""},
		{"quick", &exp.Runner{Quick: true}, ""},
		{"workers", &exp.Runner{Workers: 3}, ""},
		{"negative workers", &exp.Runner{Workers: -1}, ""},
		{"accum exact", &exp.Runner{Accum: yield.AccumExact}, ""},
		{"accum hist", &exp.Runner{Accum: yield.AccumHist}, ""},
		{"bins", &exp.Runner{Accum: yield.AccumHist, Bins: 4096}, ""},
		{"params nil", &exp.Runner{Params: nil}, ""},
		{"params RawMessage", &exp.Runner{Params: json.RawMessage(`{"Dies":120}`)}, `{"Dies":120}`},
		{"params bytes", &exp.Runner{Params: []byte(`[{"App":2}]`)}, `[{"App":2}]`},
		{"params struct", &exp.Runner{Params: &fig5Override{Trun: 2e4}}, `{"Trun":20000}`},
		{"every knob", &exp.Runner{Seed: &seven, Quick: true, Workers: 2, Accum: yield.AccumHist,
			Bins: 64, Params: json.RawMessage(`{}`)}, `{}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := newSpec(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(spec.appendTo(nil))
			var back Spec
			back.readFrom(r)
			if err := r.Close(); err != nil {
				t.Fatalf("spec does not decode: %v", err)
			}
			want := &exp.Runner{}
			if tc.in != nil {
				*want = *tc.in
			}
			want.Params = nil
			if tc.params != "" {
				want.Params = json.RawMessage(tc.params)
			}
			if got := back.Runner(); !reflect.DeepEqual(got, want) {
				t.Fatalf("knobs changed on the wire:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	if _, err := newSpec(&exp.Runner{Params: func() {}}); err == nil {
		t.Fatal("an unencodable params override was accepted")
	}
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
// remaining buffer, or leaves trailing bytes, and every value no
// encoder writes is refused.
func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	goodJob := (&Job{ID: 1, Tag: "fig5", Shard: 0, Shards: 64}).appendTo(nil)
	// submit returns a Submit with every knob set, its spec's bytes
	// passed through mod first.
	submit := func(mod func(spec []byte)) []byte {
		at := len((&Submit{Ref: 1, Experiment: "fig5"}).appendTo(nil)) - len(new(Spec).appendTo(nil))
		b := (&Submit{Ref: 1, Experiment: "fig5", Spec: fullSpec()}).appendTo(nil)
		mod(b[at:])
		return b
	}

	type tc struct {
		name    string
		typ     MsgType
		payload []byte
	}
	cases := []tc{
		{"hello: token length beyond payload", MsgHello, append(wire.AppendUint64(nil, 10), "ab"...)},
		{"hello: trailing bytes", MsgHello, append((&Hello{Auth: "a"}).appendTo(nil), 'x')},
		{"welcome: lease below 1 ms", MsgWelcome, (&Welcome{Lease: time.Millisecond - 1}).appendTo(nil)},
		{"welcome: negative lease", MsgWelcome, wire.AppendUint64(nil, 1<<63)},
		{"welcome: truncated", MsgWelcome, []byte{}},
		{"job: empty payload", MsgJob, []byte{}},
		{"job: truncated after id", MsgJob, goodJob[:8]},
		{"job: truncated mid-name", MsgJob, goodJob[:18]},
		{"job: trailing bytes", MsgJob, append(append([]byte{}, goodJob...), 0xEE)},
		{"result: truncated blob", MsgResult, func() []byte {
			b := (&Result{ID: 1, Shard: 2, Data: []byte("abcdef")}).appendTo(nil)
			return b[:len(b)-3]
		}()},
		{"result: blob length beyond payload", MsgResult, func() []byte {
			b := (&Result{ID: 1, Shard: 2, Data: []byte("abc")}).appendTo(nil)
			copy(b[16:24], wire.AppendUint64(nil, 1000))
			return b
		}()},
		{"joberror: truncated", MsgJobError, []byte{0, 0, 0, 0}},
		{"heartbeat: id list beyond payload", MsgHeartbeat, append(wire.AppendUint64(nil, 3), make([]byte, 8)...)},
		{"heartbeat: absurd id count", MsgHeartbeat, bytes.Repeat([]byte{0xFF}, 8)},
		{"cancel: trailing bytes", MsgCancel, append((&Cancel{IDs: []uint64{1}}).appendTo(nil), 0)},
		{"done: non-empty payload", MsgDone, []byte{1}},
		{"clientwelcome: draining byte 2", MsgClientWelcome, append(wire.AppendString(nil, "tok"), 2)},
		{"jobcontrol: unknown verb", MsgJobControl, (&JobControl{Ref: 1, Verb: verbEnd}).appendTo(nil)},
		{"submit: empty experiment name", MsgSubmit, (&Submit{Ref: 1}).appendTo(nil)},
		{"submit: unknown spec flag", MsgSubmit, submit(func(b []byte) { b[0] |= 0x04 })},
		{"submit: seed without the seed flag", MsgSubmit, submit(func(b []byte) { b[0] &^= specSeed })},
		{"unknown type", msgTypeEnd, nil},
	}

	// Job field-validation cases: structurally sound, semantically absurd.
	for _, mut := range []struct {
		name string
		mod  func(*Job)
	}{
		{"job: empty experiment name", func(j *Job) { j.Tag = "" }},
		{"job: zero shard count", func(j *Job) { j.Shards = 0 }},
		{"job: shard out of range", func(j *Job) { j.Shard = 64 }},
	} {
		j := &Job{ID: 1, Tag: "fig5", Shard: 0, Shards: 64}
		mut.mod(j)
		cases = append(cases, tc{mut.name, MsgJob, j.appendTo(nil)})
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
	payload := (&Result{ID: 1, Shard: 0, Data: []byte("precious")}).appendTo(nil)
	m, err := DecodeMessage(MsgResult, payload)
	if err != nil {
		t.Fatal(err)
	}
	job := (&Job{ID: 1, Tag: "fig5", Shards: 1, Spec: Spec{Params: []byte("{}")}}).appendTo(nil)
	j, err := DecodeMessage(MsgJob, job)
	if err != nil {
		t.Fatal(err)
	}
	clear(payload)
	clear(job)
	if got := string(m.(*Result).Data); got != "precious" {
		t.Fatalf("decoded data aliases the wire buffer: %q", got)
	}
	if got := string(j.(*Job).Spec.Params); got != "{}" {
		t.Fatalf("decoded params alias the wire buffer: %q", got)
	}
}

// FuzzDecodeMessage: no payload may crash a decoder a peer can reach,
// and whatever decodes re-encodes to exactly the payload it came from:
// the decoders refuse every value an encoder does not write. The seeds
// are every message type's encoding, each truncation of it, and each
// single-byte overwrite with 0xFF, which makes every length prefix lie.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []Message{
		&Hello{},
		&Hello{Auth: "s3cret"},
		&Hello{Auth: "9f86d081884c7d659a2feaa0c55ad015"},
		&Welcome{Lease: 3 * time.Second},
		&Welcome{Lease: time.Millisecond},
		&Job{ID: 7, Tag: "fig5/x", Shard: 3, Shards: 64, Spec: fullSpec()},
		&Result{ID: 7, Shard: 3, Data: []byte("shard")},
		&JobError{ID: 7, Msg: "no"},
		&Heartbeat{InFlight: []uint64{1, 2}},
		&Cancel{IDs: []uint64{42}},
		&Done{},
		&ClientHello{Token: "tok", Auth: "s3cret"},
		&ClientWelcome{Token: "tok", Draining: true},
		&Submit{Ref: 1, Experiment: "fig7", Label: "l", Priority: 4, Spec: fullSpec()},
		&SubmitReply{Ref: 1, JobID: 2, ErrMsg: "no"},
		&JobControl{Ref: 1, Verb: VerbCancel, JobID: 3},
		&JobInfo{Ref: 1, ErrMsg: "no", Data: []byte(`{}`)},
		&Snapshot{JobID: 1, Seq: 2, Data: []byte(`{}`)},
		&Final{JobID: 1, ErrMsg: "no", Result: []byte(`{}`)},
	} {
		typ, p := byte(m.msgType()), m.appendTo(nil)
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
		var fe *FrameError
		if err != nil && (!errors.As(err, &fe) || fe.Fatal) {
			t.Fatalf("decode failed with %v, want a recoverable *FrameError", err)
		}
		if err != nil {
			return
		}
		if m.msgType() != MsgType(typ) {
			t.Fatalf("frame type %d decoded as %T", typ, m)
		}
		if re := m.appendTo(nil); !bytes.Equal(re, payload) {
			t.Fatalf("decoded %T re-encodes to other bytes:\n got % x\nwant % x", m, re, payload)
		}
	})
}

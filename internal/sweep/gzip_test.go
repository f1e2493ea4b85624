package sweep

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
)

// TestGzipFrameRoundTrip: a FlagGzip frame must shrink a compressible
// payload on the wire and hand the original bytes back to the reader.
func TestGzipFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("faultmem shard result "), 512)
	plain := AppendFrame(nil, MsgResult, payload)
	flagged := AppendFrameFlags(nil, MsgResult, FlagGzip, payload)
	if len(flagged) >= len(plain) {
		t.Fatalf("gzip frame is %d bytes, plain is %d — compression bought nothing", len(flagged), len(plain))
	}
	typ, flags, got, err := ReadFrameFlags(bytes.NewReader(flagged))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgResult || flags&FlagGzip == 0 {
		t.Fatalf("got type %v flags %#02x, want result with FlagGzip", typ, flags)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload did not round-trip: %d bytes, want %d", len(got), len(payload))
	}
}

// TestGzipFrameIncompressibleFallsBackToPlain: when compression does
// not shrink the payload the flag clears itself and the wire bytes are
// exactly the plain frame's.
func TestGzipFrameIncompressibleFallsBackToPlain(t *testing.T) {
	payload := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(payload)
	flagged := AppendFrameFlags(nil, MsgResult, FlagGzip, payload)
	plain := AppendFrame(nil, MsgResult, payload)
	if !bytes.Equal(flagged, plain) {
		t.Fatal("incompressible payload must travel as a byte-identical plain frame")
	}
}

// TestFrameFlagsWireCompatibility: zero flags reproduce the pre-flags
// encoding bit for bit; FlagGzipOK touches only the type byte; and a
// flags-blind receiver (ParseFrame, the pre-flags logic) sees a flagged
// frame as a recoverable unknown type, never a dropped connection.
func TestFrameFlagsWireCompatibility(t *testing.T) {
	payload := []byte("hello payload")
	plain := AppendFrame(nil, MsgHello, payload)
	if zero := AppendFrameFlags(nil, MsgHello, 0, payload); !bytes.Equal(zero, plain) {
		t.Fatal("zero-flag frame is not byte-identical to the pre-flags encoding")
	}
	adv := AppendFrameFlags(nil, MsgHello, FlagGzipOK, payload)
	if adv[3] != byte(MsgHello)|FlagGzipOK {
		t.Fatalf("type byte = %#02x, want %#02x", adv[3], byte(MsgHello)|FlagGzipOK)
	}
	if !bytes.Equal(adv[:3], plain[:3]) || !bytes.Equal(adv[4:], plain[4:]) {
		t.Fatal("FlagGzipOK must change only the type byte")
	}
	typ, flags, got, err := ReadFrameFlags(bytes.NewReader(adv))
	if err != nil || typ != MsgHello || flags != FlagGzipOK || !bytes.Equal(got, payload) {
		t.Fatalf("flagged frame read back as %v/%#02x/%q, %v", typ, flags, got, err)
	}
	// The pre-flags receiver's view: an unknown type, recoverable.
	if MsgType(adv[3]).valid() {
		t.Fatal("a flagged type byte must be invalid to a flags-blind receiver")
	}
	if _, _, n, err := ParseFrame(adv); IsFatalFrameError(err) || n != len(adv) {
		t.Fatalf("flags-blind parse must skip the whole frame recoverably, got n=%d err=%v", n, err)
	}
}

// TestGzipFrameCorruptPayloadIsRecoverable: a FlagGzip frame whose
// payload is CRC-valid but not gzip must reject recoverably, leaving
// the stream aligned on the next frame.
func TestGzipFrameCorruptPayloadIsRecoverable(t *testing.T) {
	// The CRC covers the payload only, so flipping the flag bit on a
	// plain frame forges exactly this corruption.
	frame := AppendFrame(nil, MsgResult, []byte("definitely not a gzip stream"))
	frame[3] |= FlagGzip
	stream := append(frame, AppendFrame(nil, MsgDone, nil)...)
	r := bytes.NewReader(stream)
	_, _, _, err := ReadFrameFlags(r)
	if err == nil || IsFatalFrameError(err) {
		t.Fatalf("bad gzip payload: got %v, want recoverable frame error", err)
	}
	if typ, _, err := ReadFrame(r); err != nil || typ != MsgDone {
		t.Fatalf("stream lost alignment after rejected frame: %v, %v", typ, err)
	}
}

// TestGzipFrameBombIsBounded: a payload that inflates past
// MaxFramePayload must reject recoverably instead of allocating what
// the plain length field never could.
func TestGzipFrameBombIsBounded(t *testing.T) {
	z := new(gzipWriter).compress(make([]byte, MaxFramePayload+1))
	frame := AppendFrame(nil, MsgResult, z)
	frame[3] |= FlagGzip
	_, _, _, err := ReadFrameFlags(bytes.NewReader(frame))
	if err == nil || IsFatalFrameError(err) {
		t.Fatalf("decompression bomb: got %v, want recoverable frame error", err)
	}
}

// TestGzipWriterResetMatchesFresh: a writer reset for each payload
// emits exactly the bytes a fresh writer does, whatever it compressed
// before — long, short, empty and incompressible payloads in turn.
func TestGzipWriterResetMatchesFresh(t *testing.T) {
	noise := make([]byte, 70000)
	rand.New(rand.NewSource(2)).Read(noise)
	payloads := [][]byte{
		bytes.Repeat([]byte("faultmem shard result "), 4096),
		[]byte("short"),
		nil,
		noise,
		bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}, 9000),
		[]byte("short"),
	}
	var g gzipWriter
	for round := 0; round < 2; round++ {
		for i, p := range payloads {
			if got, want := g.compress(p), new(gzipWriter).compress(p); !bytes.Equal(got, want) {
				t.Fatalf("round %d payload %d: reused writer emitted %d bytes, fresh %d, or other bytes",
					round, i, len(got), len(want))
			}
		}
	}
}

// TestGzipFrameLyingTrailerIsRecoverable: the trailer's size field only
// sizes the inflate buffer. A frame whose trailer claims 4 GiB must
// reject recoverably (the trailer no longer matches the data), without
// allocating what the claim asks for.
func TestGzipFrameLyingTrailerIsRecoverable(t *testing.T) {
	z := new(gzipWriter).compress(bytes.Repeat([]byte("shard "), 100))
	copy(z[len(z)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	frame := AppendFrame(nil, MsgResult, z)
	frame[3] |= FlagGzip
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadFrameFlags(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil || IsFatalFrameError(err) {
		t.Fatalf("lying trailer: got %v, want recoverable frame error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte frame allocated %d bytes", len(frame), grew)
	}
}

// TestWorkerSendCompressesLargeResults: on a gzip-negotiated connection
// the worker compresses result blobs past CompressMin and leaves small
// control messages plain.
func TestWorkerSendCompressesLargeResults(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	w := &worker{cfg: WorkerConfig{}.withDefaults()}
	w.conn = c1
	w.gzip = true

	// Two results in a row: the second frame goes through the writer
	// the first one used, and both must be the frames a fresh writer
	// builds.
	for i, data := range [][]byte{
		bytes.Repeat([]byte("quality sample "), 1024),
		bytes.Repeat([]byte("recovery counter "), 2048),
	} {
		m := &Result{ID: uint64(i), Shard: i, Data: data}
		go w.sendMsg(m)
		frame := make([]byte, headerSize)
		if _, err := io.ReadFull(c2, frame); err != nil {
			t.Fatal(err)
		}
		frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame[4:8]))...)
		if _, err := io.ReadFull(c2, frame[headerSize:]); err != nil {
			t.Fatal(err)
		}
		if want := AppendFrameFlags(nil, MsgResult, FlagGzip, m.payload()); !bytes.Equal(frame, want) {
			t.Fatalf("result %d: worker frame differs from a fresh writer's", i)
		}
		typ, flags, payload, err := ReadFrameFlags(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgResult || flags&FlagGzip == 0 {
			t.Fatalf("large result went out as %v flags %#02x, want gzip-framed result", typ, flags)
		}
		back, err := DecodeMessage(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if res := back.(*Result); !bytes.Equal(res.Data, data) {
			t.Fatal("result blob did not survive the compressed round trip")
		}
	}

	go w.sendMsg(&Heartbeat{InFlight: []uint64{1}})
	if _, flags, _, err := ReadFrameFlags(c2); err != nil || flags != 0 {
		t.Fatalf("small message flags = %#02x (%v), want plain", flags, err)
	}
}

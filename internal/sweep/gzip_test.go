package sweep

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
)

// TestGzipFrameRoundTrip: a FlagGzip frame hands the inflated payload
// back to the reader, flag visible.
func TestGzipFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("faultmem shard result "), 512)
	flagged := AppendFrame(nil, MsgResult, FlagGzip, new(gzipWriter).compress(payload))
	if plain := validFrame(MsgResult, payload); len(flagged) >= len(plain) {
		t.Fatalf("gzip frame is %d bytes, plain is %d — compression bought nothing", len(flagged), len(plain))
	}
	typ, flags, got, err := readFrame(bytes.NewReader(flagged))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgResult || flags != FlagGzip {
		t.Fatalf("got type %v flags %#02x, want result with FlagGzip", typ, flags)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload did not round-trip: %d bytes, want %d", len(got), len(payload))
	}
}

// TestGzipFrameIncompressibleFallsBackToPlain: when compression does
// not shrink a large result the worker sends the byte-identical plain
// frame.
func TestGzipFrameIncompressibleFallsBackToPlain(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	m := &Result{ID: 1, Data: data}
	if got, want := workerFrame(t, m), validFrame(MsgResult, m.appendTo(nil)); !bytes.Equal(got, want) {
		t.Fatal("incompressible payload must travel as a byte-identical plain frame")
	}
}

// TestGzipFrameCorruptPayloadIsRecoverable: a FlagGzip frame whose
// payload is CRC-valid but not gzip must reject recoverably, leaving
// the stream aligned on the next frame.
func TestGzipFrameCorruptPayloadIsRecoverable(t *testing.T) {
	// The CRC covers the payload only, so flipping the flag bit on a
	// plain frame forges exactly this corruption.
	frame := AppendFrame(nil, MsgResult, FlagGzip, []byte("definitely not a gzip stream"))
	stream := append(frame, validFrame(MsgDone, nil)...)
	r := bytes.NewReader(stream)
	var fe *FrameError
	if _, _, _, err := readFrame(r); !errors.As(err, &fe) || fe.Fatal {
		t.Fatalf("bad gzip payload: got %v, want recoverable frame error", err)
	}
	if typ, _, _, err := readFrame(r); err != nil || typ != MsgDone {
		t.Fatalf("stream lost alignment after rejected frame: %v, %v", typ, err)
	}
}

// TestGzipFrameBombIsBounded: a payload that inflates past
// MaxFramePayload must reject recoverably instead of allocating what
// the plain length field never could.
func TestGzipFrameBombIsBounded(t *testing.T) {
	z := new(gzipWriter).compress(make([]byte, MaxFramePayload+1))
	frame := AppendFrame(nil, MsgResult, FlagGzip, z)
	var fe *FrameError
	if _, _, _, err := readFrame(bytes.NewReader(frame)); !errors.As(err, &fe) || fe.Fatal {
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
	frame := AppendFrame(nil, MsgResult, FlagGzip, z)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Fatal {
		t.Fatalf("lying trailer: got %v, want recoverable frame error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte frame allocated %d bytes", len(frame), grew)
	}
}

// workerFrame returns the frame a connected worker sends for m.
func workerFrame(t *testing.T, m Message) []byte {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	w := &worker{cfg: WorkerConfig{}.withDefaults(), conn: c1}
	go w.sendMsg(m)
	frame, err := ReadRawFrame(c2)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestWorkerSendCompressesLargeResults: the worker compresses result
// blobs of at least CompressMin bytes and leaves small control messages
// plain.
func TestWorkerSendCompressesLargeResults(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	w := &worker{cfg: WorkerConfig{}.withDefaults(), conn: c1}

	// Two results in a row: the second frame goes through the writer
	// the first one used, and both must be the frames a fresh writer
	// builds.
	for i, data := range [][]byte{
		bytes.Repeat([]byte("quality sample "), 1024),
		bytes.Repeat([]byte("recovery counter "), 2048),
	} {
		m := &Result{ID: uint64(i), Shard: i, Data: data}
		go w.sendMsg(m)
		frame, err := ReadRawFrame(c2)
		if err != nil {
			t.Fatal(err)
		}
		if want := AppendFrame(nil, MsgResult, FlagGzip, new(gzipWriter).compress(m.appendTo(nil))); !bytes.Equal(frame, want) {
			t.Fatalf("result %d: worker frame differs from a fresh writer's", i)
		}
		typ, _, payload, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeMessage(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if res := back.(*Result); !bytes.Equal(res.Data, data) {
			t.Fatal("result blob did not survive the compressed round trip")
		}
	}

	m := &Heartbeat{InFlight: []uint64{1}}
	if got := workerFrame(t, m); !bytes.Equal(got, validFrame(MsgHeartbeat, m.appendTo(nil))) {
		t.Fatal("a small message did not travel as a plain frame")
	}
}

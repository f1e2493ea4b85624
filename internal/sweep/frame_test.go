package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// validFrame builds one well-formed frame for corruption tests.
func validFrame(t MsgType, payload []byte) []byte {
	return AppendFrame(nil, t, payload)
}

// TestFrameRoundTrip: what AppendFrame writes, ReadFrame and ParseFrame
// read back byte-identically.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		raw := validFrame(MsgResult, p)

		typ, got, n, err := ParseFrame(raw)
		if err != nil || typ != MsgResult || !bytes.Equal(got, p) || n != len(raw) {
			t.Fatalf("ParseFrame(%d-byte payload) = %v,%v,%d,%v", len(p), typ, got, n, err)
		}

		typ, got, err = ReadFrame(bytes.NewReader(raw))
		if err != nil || typ != MsgResult || !bytes.Equal(got, p) {
			t.Fatalf("ReadFrame(%d-byte payload) = %v,%v,%v", len(p), typ, got, err)
		}
	}
}

// TestFrameStreamRoundTrip: several frames back to back decode in order,
// ending with a clean io.EOF at the boundary.
func TestFrameStreamRoundTrip(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, MsgHello, []byte("a"))
	stream = AppendFrame(stream, MsgHeartbeat, nil)
	stream = AppendFrame(stream, MsgDone, []byte("bb"))
	r := bytes.NewReader(stream)
	want := []MsgType{MsgHello, MsgHeartbeat, MsgDone}
	for i, w := range want {
		typ, _, err := ReadFrame(r)
		if err != nil || typ != w {
			t.Fatalf("frame %d: %v, %v (want %v)", i, typ, err, w)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// corruptFrameCases is the adversarial catalogue: every way a frame can
// be malformed, with the required classification. Fatal errors force a
// reconnect (stream alignment lost); recoverable ones reject one frame
// and keep the connection.
var corruptFrameCases = []struct {
	name  string
	mut   func([]byte) []byte
	fatal bool
}{
	{"bad magic byte 0", func(b []byte) []byte { b[0] = 0x00; return b }, true},
	{"bad magic byte 1", func(b []byte) []byte { b[1] ^= 0xFF; return b }, true},
	{"swapped magic", func(b []byte) []byte { b[0], b[1] = b[1], b[0]; return b }, true},
	{"future version", func(b []byte) []byte { b[2] = ProtocolVersion + 1; return b }, true},
	{"zero version", func(b []byte) []byte { b[2] = 0; return b }, true},
	{"oversized length", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[4:8], MaxFramePayload+1)
		return b
	}, true},
	{"max length", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[4:8], 0xFFFFFFFF)
		return b
	}, true},
	{"payload bit flip", func(b []byte) []byte { b[headerSize] ^= 0x01; return b }, false},
	{"checksum bit flip", func(b []byte) []byte { b[8] ^= 0x80; return b }, false},
	{"unknown type", func(b []byte) []byte {
		b[3] = byte(msgTypeEnd) + 7
		// Re-checksum: an unknown-but-intact frame must be skippable.
		return b
	}, false},
	{"zero type", func(b []byte) []byte { b[3] = 0; return b }, false},
}

// TestReadFrameRejectsCorruptFrames drives the catalogue through the
// stream reader and checks both the classification and that a recoverable
// rejection leaves the stream aligned for the next frame.
func TestReadFrameRejectsCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mut(validFrame(MsgHeartbeat, []byte("abcd")))
			stream := append(append([]byte{}, bad...), validFrame(MsgDone, nil)...)
			r := bytes.NewReader(stream)

			_, _, err := ReadFrame(r)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("corrupt frame returned %v, want *FrameError", err)
			}
			if fe.Fatal != tc.fatal {
				t.Fatalf("Fatal = %v, want %v (%v)", fe.Fatal, tc.fatal, fe)
			}
			if !tc.fatal {
				// The rejected frame must have been fully consumed: the
				// following good frame decodes.
				typ, _, err := ReadFrame(r)
				if err != nil || typ != MsgDone {
					t.Fatalf("stream lost alignment after recoverable reject: %v, %v", typ, err)
				}
			}
		})
	}
}

// TestParseFrameRejectsCorruptFrames drives the same catalogue through
// the pure parser, checking the consumed-byte contract: recoverable
// errors report the frame's full size so buffer-based callers can skip
// it; fatal errors report zero.
func TestParseFrameRejectsCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			good := validFrame(MsgHeartbeat, []byte("abcd"))
			bad := tc.mut(append([]byte{}, good...))
			_, _, n, err := ParseFrame(bad)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("ParseFrame = %v, want *FrameError", err)
			}
			if fe.Fatal != tc.fatal {
				t.Fatalf("Fatal = %v, want %v (%v)", fe.Fatal, tc.fatal, fe)
			}
			if !tc.fatal && n != len(good) {
				t.Fatalf("recoverable reject consumed %d bytes, want %d", n, len(good))
			}
			if tc.fatal && n != 0 {
				t.Fatalf("fatal reject consumed %d bytes, want 0", n)
			}
		})
	}
}

// TestReadFrameTruncation: a cut mid-header or mid-payload is fatal (the
// peer died or the proxy mangled the stream), but a cut at a frame
// boundary is a clean io.EOF.
func TestReadFrameTruncation(t *testing.T) {
	raw := validFrame(MsgJob, []byte("payload-bytes"))
	for cut := 1; cut < len(raw); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(raw[:cut]))
		var fe *FrameError
		if !errors.As(err, &fe) || !fe.Fatal {
			t.Fatalf("cut at %d/%d bytes: %v, want fatal *FrameError", cut, len(raw), err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestReadFrameLimit: a header declaring more than the cap is fatal
// before any payload byte is read, and a compressed payload may not
// inflate past the cap either.
func TestReadFrameLimit(t *testing.T) {
	raw := validFrame(MsgHello, bytes.Repeat([]byte{'a'}, 100))
	if _, _, _, err := ReadFrameLimit(bytes.NewReader(raw), 100); err != nil {
		t.Fatalf("frame at the cap: %v", err)
	}
	r := bytes.NewReader(raw)
	_, _, _, err := ReadFrameLimit(r, 99)
	var fe *FrameError
	if !errors.As(err, &fe) || !fe.Fatal {
		t.Fatalf("over-cap frame: %v, want fatal *FrameError", err)
	}
	if r.Len() != len(raw)-headerSize {
		t.Fatalf("read %d payload bytes past an over-cap header", len(raw)-headerSize-r.Len())
	}

	z := AppendFrameFlags(nil, MsgResult, FlagGzip, make([]byte, 1000))
	if _, _, _, err := ReadFrameLimit(bytes.NewReader(z), 999); !errors.As(err, &fe) || fe.Fatal {
		t.Fatalf("payload inflating past the cap: %v, want recoverable *FrameError", err)
	}
}

// TestFrameErrorUnwrapsClosedConn: reading from a connection this side
// closed is a fatal frame error that still matches net.ErrClosed, so an
// orderly shutdown is not logged as a dropped connection.
func TestFrameErrorUnwrapsClosedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	_, _, err = ReadFrame(conn)
	if !IsFatalFrameError(err) || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read from a closed conn: %v, want a fatal frame error matching net.ErrClosed", err)
	}
}

// TestParseFrameShortBuffer: an incomplete buffer asks for more bytes
// rather than erroring — streaming callers accumulate and retry.
func TestParseFrameShortBuffer(t *testing.T) {
	raw := validFrame(MsgResult, []byte("abc"))
	for cut := 0; cut < len(raw); cut++ {
		_, _, n, err := ParseFrame(raw[:cut])
		if err != io.ErrUnexpectedEOF || n != 0 {
			t.Fatalf("cut at %d: n=%d err=%v, want 0, io.ErrUnexpectedEOF", cut, n, err)
		}
	}
}

// TestReadRawFrameForwardsCorruptPayloads: the chaos tap must pass
// through checksum-corrupt frames intact (so they reach the victim) but
// still refuse header-level desync.
func TestReadRawFrameForwardsCorruptPayloads(t *testing.T) {
	raw := validFrame(MsgResult, []byte("shard"))
	raw[headerSize] ^= 0xFF // corrupt payload, leave header intact
	got, err := ReadRawFrame(bytes.NewReader(raw))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("raw read of corrupt-payload frame: %v, %v", got, err)
	}

	raw[0] = 0x00 // now break the magic: the tap itself must bail
	if _, err := ReadRawFrame(bytes.NewReader(raw)); !IsFatalFrameError(err) {
		t.Fatalf("raw read of desynced stream: %v, want fatal", err)
	}
}

// TestAppendFramePanicsOnOversizedPayload: framing an over-limit payload
// is a programming error, caught before it hits the wire.
func TestAppendFramePanicsOnOversizedPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized payload")
		}
	}()
	AppendFrame(nil, MsgResult, make([]byte, MaxFramePayload+1))
}

// FuzzParseFrame: no input may crash the parser, and every accepted
// frame must re-encode to exactly the bytes consumed.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(validFrame(MsgHello, []byte("tok")))
	f.Add(validFrame(MsgHeartbeat, nil))
	f.Add(validFrame(MsgJob, bytes.Repeat([]byte{0x5A}, 64)))
	bad := validFrame(MsgResult, []byte("abcd"))
	bad[9] ^= 0x10
	f.Add(bad)
	f.Add([]byte{magic0, magic1, ProtocolVersion, byte(MsgDone), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, n, err := ParseFrame(b)
		if err != nil {
			if n < 0 || n > len(b) {
				t.Fatalf("consumed %d of %d bytes on error", n, len(b))
			}
			return
		}
		if !typ.valid() {
			t.Fatalf("accepted invalid type %v", typ)
		}
		if re := AppendFrame(nil, typ, payload); !bytes.Equal(re, b[:n]) {
			t.Fatal("accepted frame does not re-encode to its own bytes")
		}
	})
}

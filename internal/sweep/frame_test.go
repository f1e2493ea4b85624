package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"
)

// validFrame builds one well-formed plain frame for corruption tests.
func validFrame(t MsgType, payload []byte) []byte {
	return AppendFrame(nil, t, 0, payload)
}

// readFrame reads one frame at the full payload limit.
func readFrame(r io.Reader) (MsgType, byte, []byte, error) {
	return ReadFrame(r, MaxFramePayload)
}

// TestFrameRoundTrip: what AppendFrame writes, ReadFrame reads back
// byte-identically, consuming exactly the frame.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		r := bytes.NewReader(validFrame(MsgResult, p))
		typ, flags, got, err := readFrame(r)
		if err != nil || typ != MsgResult || flags != 0 || !bytes.Equal(got, p) || r.Len() != 0 {
			t.Fatalf("ReadFrame(%d-byte payload) = %v,%#02x,%v,%v with %d bytes left", len(p), typ, flags, got, err, r.Len())
		}
	}
}

// TestFrameStreamRoundTrip: several frames back to back decode in order,
// ending with a clean io.EOF at the boundary.
func TestFrameStreamRoundTrip(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, MsgHello, 0, []byte("a"))
	stream = AppendFrame(stream, MsgHeartbeat, 0, nil)
	stream = AppendFrame(stream, MsgDone, 0, []byte("bb"))
	r := bytes.NewReader(stream)
	want := []MsgType{MsgHello, MsgHeartbeat, MsgDone}
	for i, w := range want {
		typ, _, _, err := readFrame(r)
		if err != nil || typ != w {
			t.Fatalf("frame %d: %v, %v (want %v)", i, typ, err, w)
		}
	}
	if _, _, _, err := readFrame(r); err != io.EOF {
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
	{"version 2", func(b []byte) []byte { b[2] = 2; return b }, true},
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
	// The retired capability bit reads as part of the type, so a frame
	// carrying it is an unknown type.
	{"retired 0x40 flag", func(b []byte) []byte { b[3] |= 0x40; return b }, false},
}

// TestReadFrameRejectsCorruptFrames drives the catalogue through a
// stream that delivers one byte per Read, and checks both the
// classification and that a recoverable rejection leaves the stream
// aligned for the next frame.
func TestReadFrameRejectsCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mut(validFrame(MsgHeartbeat, []byte("abcd")))
			stream := append(bad, validFrame(MsgDone, nil)...)
			r := iotest.OneByteReader(bytes.NewReader(stream))

			_, _, _, err := readFrame(r)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("corrupt frame returned %v, want *FrameError", err)
			}
			if fe.Fatal != tc.fatal {
				t.Fatalf("Fatal = %v, want %v (%v)", fe.Fatal, tc.fatal, fe)
			}
			if !tc.fatal {
				if typ, _, _, err := readFrame(r); err != nil || typ != MsgDone {
					t.Fatalf("stream lost alignment after recoverable reject: %v, %v", typ, err)
				}
			}
		})
	}
}

// TestParseFrameRejectsCorruptFrames parses each catalogue frame out of a
// byte buffer and checks the consumed-byte contract: a fatal rejection
// reads the header alone, no payload byte, and a recoverable one consumes
// exactly the rejected frame, so a buffer-based caller can skip it.
func TestParseFrameRejectsCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mut(validFrame(MsgHeartbeat, []byte("abcd")))
			r := bytes.NewReader(bad)
			_, _, _, err := readFrame(r)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("ReadFrame = %v, want *FrameError", err)
			}
			if fe.Fatal != tc.fatal {
				t.Fatalf("Fatal = %v, want %v (%v)", fe.Fatal, tc.fatal, fe)
			}
			n := len(bad) - r.Len()
			if tc.fatal && n != headerSize {
				t.Fatalf("fatal reject consumed %d bytes, want %d (the header alone)", n, headerSize)
			}
			if !tc.fatal && n != len(bad) {
				t.Fatalf("recoverable reject consumed %d bytes, want %d", n, len(bad))
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
		_, _, _, err := readFrame(bytes.NewReader(raw[:cut]))
		var fe *FrameError
		if !errors.As(err, &fe) || !fe.Fatal {
			t.Fatalf("cut at %d/%d bytes: %v, want fatal *FrameError", cut, len(raw), err)
		}
	}
	if _, _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestReadFrameLimit: a header declaring more than the cap is fatal
// before any payload byte is read, and a compressed payload may not
// inflate past the cap either.
func TestReadFrameLimit(t *testing.T) {
	raw := validFrame(MsgHello, bytes.Repeat([]byte{'a'}, 100))
	if _, _, _, err := ReadFrame(bytes.NewReader(raw), 100); err != nil {
		t.Fatalf("frame at the cap: %v", err)
	}
	r := bytes.NewReader(raw)
	_, _, _, err := ReadFrame(r, 99)
	var fe *FrameError
	if !errors.As(err, &fe) || !fe.Fatal {
		t.Fatalf("over-cap frame: %v, want fatal *FrameError", err)
	}
	if r.Len() != len(raw)-headerSize {
		t.Fatalf("read %d payload bytes past an over-cap header", len(raw)-headerSize-r.Len())
	}

	z := AppendFrame(nil, MsgResult, FlagGzip, new(gzipWriter).compress(make([]byte, 1000)))
	if _, _, _, err := ReadFrame(bytes.NewReader(z), 999); !errors.As(err, &fe) || fe.Fatal {
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
	_, _, _, err = readFrame(conn)
	var fe *FrameError
	if !errors.As(err, &fe) || !fe.Fatal || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read from a closed conn: %v, want a fatal frame error matching net.ErrClosed", err)
	}
}

// TestParseFrameShortBuffer: a buffer cut short of a whole frame is a
// fatal error that unwraps to the read error that cut it (so a caller can
// tell truncation from corruption) and is never mistaken for a clean end;
// only the empty buffer is io.EOF.
func TestParseFrameShortBuffer(t *testing.T) {
	raw := validFrame(MsgResult, []byte("abc"))
	for cut := 1; cut < len(raw); cut++ {
		want := io.ErrUnexpectedEOF
		if cut == headerSize {
			want = io.EOF // the header is whole and no payload byte follows
		}
		_, _, _, err := readFrame(bytes.NewReader(raw[:cut]))
		var fe *FrameError
		if err == io.EOF || !errors.As(err, &fe) || !fe.Fatal || !errors.Is(err, want) {
			t.Fatalf("cut at %d: %v, want a fatal *FrameError wrapping %v", cut, err, want)
		}
	}
	if _, _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty buffer: %v, want io.EOF", err)
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
	var fe *FrameError
	if _, err := ReadRawFrame(bytes.NewReader(raw)); !errors.As(err, &fe) || !fe.Fatal {
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
	AppendFrame(nil, MsgResult, 0, make([]byte, MaxFramePayload+1))
}

// FuzzParseFrame: no input may crash ReadFrame, read frame after frame
// from one stream until it ends or desynchronizes; every error is a
// *FrameError or a clean io.EOF; and every accepted plain frame
// re-encodes to exactly the bytes it consumed.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(validFrame(MsgHello, []byte("tok")))
	f.Add(append(validFrame(MsgHeartbeat, nil), validFrame(MsgDone, nil)...))
	f.Add(validFrame(MsgJob, bytes.Repeat([]byte{0x5A}, 64)))
	bad := validFrame(MsgResult, []byte("abcd"))
	bad[9] ^= 0x10
	f.Add(append(bad, validFrame(MsgDone, nil)...))
	f.Add([]byte{magic0, magic1, ProtocolVersion, byte(MsgDone), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(AppendFrame(nil, MsgResult, FlagGzip, new(gzipWriter).compress(bytes.Repeat([]byte("shard "), 300))))
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		for {
			start := len(b) - r.Len()
			typ, flags, payload, err := readFrame(r)
			var fe *FrameError
			switch {
			case err == io.EOF:
				return
			case errors.As(err, &fe) && fe.Fatal:
				return
			case err != nil && fe == nil:
				t.Fatalf("ReadFrame returned %v, want a *FrameError or io.EOF", err)
			case err != nil:
				continue // a recoverable rejection consumed one whole frame
			case !typ.valid() || flags&^FlagGzip != 0:
				t.Fatalf("accepted type %v with flags %#02x", typ, flags)
			case flags == 0 && !bytes.Equal(AppendFrame(nil, typ, 0, payload), b[start:len(b)-r.Len()]):
				t.Fatal("accepted frame does not re-encode to its own bytes")
			}
		}
	})
}

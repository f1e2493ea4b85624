// Package sweep is the fault-tolerant multi-host transport of the
// experiment registry: a coordinator fans the Monte-Carlo shards of any
// registered campaign out to remote workers over a length-prefixed,
// checksummed frame protocol, and merges the returned shard payloads in
// shard order — bit-identical to a single-host mc.RunEnv run at any
// worker count and under any churn schedule. The coordinator is a pool
// without a listener: the campaign server (internal/serve) accepts every
// connection, reads and authenticates its Hello, and hands workers to
// Coordinator.AdmitWorker.
//
// Robustness is the design center, because a single lost or duplicated
// shard silently biases a 1e9-sample CDF:
//
//   - every frame is validated (magic, version, type, bounded length,
//     payload CRC) before a byte of it is trusted; corrupt payloads are
//     rejected without killing the session, desynchronized streams drop
//     only the connection;
//   - every dispatched shard holds a lease refreshed by worker
//     heartbeats; expired leases reassign the shard, and results are
//     deduplicated by job ID so a slow worker's late answer can never
//     double-merge;
//   - workers reconnect with jittered exponential backoff and resume
//     their session by token, re-delivering results computed while
//     disconnected;
//   - when the worker pool drains to zero the coordinator finishes the
//     campaign locally.
package sweep

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Wire constants. The frame header is:
//
//	offset 0: magic 0xFA 0x51 ("FAult-mem Sweep, 1 family")
//	offset 2: protocol version (1 byte)
//	offset 3: message type (1 byte)
//	offset 4: payload length (uint32, big endian)
//	offset 8: payload CRC-32 (IEEE, big endian)
//	offset 12: payload
const (
	magic0, magic1 = 0xFA, 0x51
	// ProtocolVersion is bumped on any incompatible frame or payload
	// change; a coordinator rejects other versions at the frame layer.
	// Version 2 carries Result blobs in the shard types' binary forms.
	ProtocolVersion = 2
	headerSize      = 12
	// MaxFramePayload bounds a single frame. A shard result is at most a
	// few hundred KB of accumulator state at paper-scale budgets; 64 MB
	// leaves two orders of magnitude of headroom while making a corrupt
	// length field detectable before any allocation happens.
	MaxFramePayload = 64 << 20
	// MaxHelloPayload caps a connection's first frame, read before the
	// peer has authenticated. Hello and ClientHello carry two
	// uint8-length strings, at most 512 payload bytes.
	MaxHelloPayload = 4 << 10
)

// The type byte's low six bits carry the MsgType; the high two bits are
// per-frame flags. A peer that predates the flags reads a flagged type
// byte as an unknown message type — a recoverable frame error (the
// length and CRC fields are flag-agnostic), so flagged frames degrade to
// a counted skip instead of a dropped connection.
const (
	// typeMask extracts the MsgType from the frame's type byte.
	typeMask = 0x3F
	// FlagGzip marks a frame whose payload is gzip-compressed. The
	// length and CRC fields cover the compressed wire bytes, so every
	// receiver — including one that cannot inflate — still delimits and
	// validates the frame identically.
	FlagGzip = 0x80
	// FlagGzipOK advertises that the frame's sender can decode FlagGzip
	// frames. A worker sets it on Hello; the coordinator echoes it on
	// Welcome only to workers that advertised, so compression is only
	// ever used on a connection where both ends opted in.
	FlagGzipOK = 0x40

	// CompressMin is the smallest payload senders bother compressing.
	// Below it the gzip header overhead and the extra CPU beat any
	// saving; shard-result blobs are the payloads that matter.
	CompressMin = 1 << 10
)

// MsgType enumerates the protocol's frame types.
type MsgType byte

const (
	// MsgHello opens a connection (worker -> coordinator): an empty token
	// requests a new session, a previous token requests session resume.
	MsgHello MsgType = iota + 1
	// MsgWelcome acknowledges Hello (coordinator -> worker) and carries
	// the session token the worker must present on reconnect.
	MsgWelcome
	// MsgJob assigns one shard of a campaign to a worker.
	MsgJob
	// MsgResult delivers a computed shard payload back to the coordinator.
	MsgResult
	// MsgJobError reports that a worker could not compute an assigned
	// shard (unencodable shard type, plan mismatch, experiment error).
	MsgJobError
	// MsgHeartbeat refreshes the session and the leases of the in-flight
	// jobs it lists; the coordinator echoes an empty heartbeat as a pong.
	MsgHeartbeat
	// MsgCancel tells a worker to abandon the listed jobs (all in-flight
	// jobs when the list is empty).
	MsgCancel
	// MsgDone tells a worker the coordinator is finished for good; the
	// worker exits cleanly instead of reconnecting.
	MsgDone

	// The client half of the protocol: the campaign-submission surface of
	// `faultmem serve`. A pre-serve peer reads these as unknown frame
	// types — a recoverable skip, so mixed-version deployments degrade
	// instead of desynchronizing.

	// MsgClientHello opens a client connection (client -> server): an
	// empty token requests a new client session, a previous token
	// requests session resume (re-attaching running jobs and draining
	// results buffered while disconnected).
	MsgClientHello
	// MsgClientWelcome acknowledges ClientHello (server -> client) and
	// carries the session token plus the server's draining state.
	MsgClientWelcome
	// MsgSubmit submits one campaign: a registry name plus the runner
	// knobs, exactly the wire form exp.Runner.Params accepts.
	MsgSubmit
	// MsgSubmitReply answers a Submit with the admitted job ID (or a
	// rejection).
	MsgSubmitReply
	// MsgJobControl is a status/cancel/list verb against admitted jobs.
	MsgJobControl
	// MsgJobInfo answers a JobControl with a JSON status blob.
	MsgJobInfo
	// MsgSnapshot is a periodic server -> client push of one running
	// job's partial state (stage progress, merged-sample counts).
	MsgSnapshot
	// MsgFinal is the server -> client push of one job's terminal
	// outcome: the final ExperimentResult JSON or the error that ended it.
	MsgFinal
	msgTypeEnd
)

func (t MsgType) valid() bool { return t >= MsgHello && t < msgTypeEnd }

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgJob:
		return "job"
	case MsgResult:
		return "result"
	case MsgJobError:
		return "joberror"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgCancel:
		return "cancel"
	case MsgDone:
		return "done"
	case MsgClientHello:
		return "clienthello"
	case MsgClientWelcome:
		return "clientwelcome"
	case MsgSubmit:
		return "submit"
	case MsgSubmitReply:
		return "submitreply"
	case MsgJobControl:
		return "jobcontrol"
	case MsgJobInfo:
		return "jobinfo"
	case MsgSnapshot:
		return "snapshot"
	case MsgFinal:
		return "final"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

// FrameError is a frame-layer validation failure. Fatal errors mean the
// byte stream can no longer be trusted to be frame-aligned (bad magic,
// bad version, oversized length, truncation mid-frame): the receiver
// must drop the connection — the session survives and the peer
// reconnects. Non-fatal errors (checksum mismatch, unknown type) consumed
// a complete, well-delimited frame: the receiver rejects the frame and
// keeps the connection.
type FrameError struct {
	Fatal  bool
	Reason string
	// Err is the read error that cut the frame short, if any, so callers
	// can tell an orderly close (net.ErrClosed) from a dropped link.
	Err error
}

// Unwrap returns the read error behind a truncated frame.
func (e *FrameError) Unwrap() error { return e.Err }

func (e *FrameError) Error() string {
	kind := "recoverable"
	if e.Fatal {
		kind = "fatal"
	}
	return fmt.Sprintf("sweep: %s frame error: %s", kind, e.Reason)
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. It panics on an oversized payload — callers bound payload sizes
// before framing.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	return AppendFrameFlags(dst, t, 0, payload)
}

// AppendFrameFlags is AppendFrame with frame flags. Zero flags produce
// a frame byte-identical to AppendFrame's. FlagGzip compresses the
// payload before framing — and silently clears itself when compression
// does not shrink the payload, so an incompressible blob travels plain
// and a receiver never inflates for nothing. It panics on flags outside
// the defined set or a MsgType that collides with the flag bits.
func AppendFrameFlags(dst []byte, t MsgType, flags byte, payload []byte) []byte {
	return appendFrame(dst, t, flags, payload, nil)
}

// appendFrame is AppendFrameFlags compressing through zw, or through a
// fresh writer when zw is nil.
func appendFrame(dst []byte, t MsgType, flags byte, payload []byte, zw *gzipWriter) []byte {
	if byte(t)&^typeMask != 0 {
		panic(fmt.Sprintf("sweep: message type %d collides with frame flags", byte(t)))
	}
	if flags&typeMask != 0 {
		panic(fmt.Sprintf("sweep: invalid frame flags %#02x", flags))
	}
	if len(payload) > MaxFramePayload {
		panic(fmt.Sprintf("sweep: oversized %v frame: %d bytes", t, len(payload)))
	}
	if flags&FlagGzip != 0 {
		if zw == nil {
			zw = new(gzipWriter)
		}
		if z := zw.compress(payload); len(z) < len(payload) {
			payload = z
		} else {
			flags &^= FlagGzip
		}
	}
	var hdr [headerSize]byte
	hdr[0], hdr[1] = magic0, magic1
	hdr[2] = ProtocolVersion
	hdr[3] = byte(t) | flags
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	dst = slices.Grow(dst, headerSize+len(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes one frame to w in a single Write call, so concurrent
// writers serialized by a mutex never interleave partial frames.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	return WriteFrameFlags(w, t, 0, payload)
}

// WriteFrameFlags is WriteFrame with frame flags (see AppendFrameFlags).
func WriteFrameFlags(w io.Writer, t MsgType, flags byte, payload []byte) error {
	return writeFrame(w, t, flags, payload, nil)
}

// writeFrame is WriteFrameFlags compressing through zw (see appendFrame).
func writeFrame(w io.Writer, t MsgType, flags byte, payload []byte, zw *gzipWriter) error {
	_, err := w.Write(appendFrame(nil, t, flags, payload, zw))
	return err
}

// parseHeader validates the fixed header and returns the declared type,
// payload length, and checksum. Errors are always fatal: a header that
// does not parse, or declares more than limit payload bytes, means the
// stream is not frame-aligned or not worth reading.
func parseHeader(hdr []byte, limit int) (t MsgType, length int, sum uint32, err error) {
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, 0, &FrameError{Fatal: true, Reason: fmt.Sprintf("bad magic %#02x%02x", hdr[0], hdr[1])}
	}
	if hdr[2] != ProtocolVersion {
		return 0, 0, 0, &FrameError{Fatal: true, Reason: fmt.Sprintf("unsupported protocol version %d", hdr[2])}
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if int64(n) > int64(limit) {
		return 0, 0, 0, &FrameError{Fatal: true, Reason: fmt.Sprintf("oversized frame: %d bytes", n)}
	}
	return MsgType(hdr[3]), int(n), binary.BigEndian.Uint32(hdr[8:12]), nil
}

// ParseFrame parses one frame from the front of b. It returns the frame's
// type and payload plus the number of bytes consumed. An incomplete
// buffer returns io.ErrUnexpectedEOF (n = 0): the caller needs more
// bytes. Validation failures return a *FrameError; for non-fatal ones
// (bad checksum, unknown type) n still reports the full frame size, so a
// streaming caller can skip the rejected frame and stay aligned. It is
// deliberately flag-blind — a flagged type byte parses as an unknown
// type, exactly as a pre-flags receiver sees it — so its round-trip
// with AppendFrame stays exact; connection read paths use
// ReadFrame/ReadFrameFlags, which understand flags.
func ParseFrame(b []byte) (t MsgType, payload []byte, n int, err error) {
	if len(b) < headerSize {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	t, length, sum, err := parseHeader(b[:headerSize], MaxFramePayload)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(b) < headerSize+length {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	n = headerSize + length
	payload = b[headerSize:n]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, n, &FrameError{Reason: fmt.Sprintf("%v frame checksum mismatch", t)}
	}
	if !t.valid() {
		return 0, nil, n, &FrameError{Reason: fmt.Sprintf("unknown frame type %d", byte(t))}
	}
	return t, payload, n, nil
}

// ReadFrame reads and validates one frame from r, transparently
// inflating FlagGzip payloads (the frame's own flags are dropped; use
// ReadFrameFlags to see them). A clean EOF at a frame boundary returns
// io.EOF. Fatal *FrameErrors (desynchronized stream, truncation
// mid-frame) require the caller to drop the connection; non-fatal ones
// consumed exactly one complete frame, and the caller may reject it and
// keep reading.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	t, _, payload, err := ReadFrameFlags(r)
	return t, payload, err
}

// ReadFrameFlags is ReadFrame exposing the frame's flag bits. The
// returned payload is already inflated when FlagGzip was set (the flag
// stays visible to the caller); a payload that fails to inflate or
// inflates past MaxFramePayload is a recoverable error — the frame was
// well-delimited and CRC-valid on the wire, only its contents are bad.
func ReadFrameFlags(r io.Reader) (MsgType, byte, []byte, error) {
	return ReadFrameLimit(r, MaxFramePayload)
}

// ReadFrameLimit is ReadFrameFlags with the payload capped at limit
// bytes, both as declared on the wire and once inflated. A header that
// declares more is a fatal error, raised before any payload byte is read
// or allocated.
func ReadFrameLimit(r io.Reader, limit int) (MsgType, byte, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated header: %v", err), Err: err}
	}
	raw, length, sum, err := parseHeader(hdr[:], limit)
	if err != nil {
		return 0, 0, nil, err
	}
	flags := byte(raw) &^ typeMask
	t := raw & typeMask
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated %v payload: %v", t, err), Err: err}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("%v frame checksum mismatch", t)}
	}
	if !t.valid() {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("unknown frame type %d", byte(t))}
	}
	if flags&FlagGzip != 0 {
		if payload, err = gzipDecompress(t, payload, limit); err != nil {
			return 0, 0, nil, err
		}
	}
	return t, flags, payload, nil
}

// ReadRawFrame reads one frame and returns its raw bytes (header plus
// payload) without verifying the checksum or type — the tap the chaos
// proxy uses to forward, corrupt, or truncate whole frames while staying
// frame-aligned itself. Header-shape failures are returned as-is.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated header: %v", err), Err: err}
	}
	_, length, _, err := parseHeader(hdr[:], MaxFramePayload)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, headerSize+length)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return nil, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated payload: %v", err), Err: err}
	}
	return buf, nil
}

// IsFatalFrameError reports whether err is a frame error that requires
// dropping the connection (the session itself survives).
func IsFatalFrameError(err error) bool {
	fe, ok := err.(*FrameError)
	return ok && fe.Fatal
}

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
//     rejected without killing the connection, desynchronized streams
//     drop only the connection;
//   - every dispatched shard holds a lease refreshed by worker
//     heartbeats; expired leases reassign the shard, and results are
//     deduplicated by job ID so a slow worker's late answer can never
//     double-merge;
//   - workers reconnect with jittered exponential backoff, re-deliver
//     results computed while disconnected, and their heartbeats on the
//     new connection adopt the leases of the jobs still computing;
//   - when the worker pool drains to zero the coordinator finishes the
//     campaign locally.
package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Wire constants. The frame header is:
//
//	offset 0: magic 0xFA 0x51 ("FAult-mem Sweep, 1 family")
//	offset 2: protocol version (1 byte)
//	offset 3: message type (low 7 bits) | FlagGzip (1 byte)
//	offset 4: payload length (uint32, big endian)
//	offset 8: payload CRC-32 (IEEE, big endian)
//	offset 12: payload
const (
	magic0, magic1 = 0xFA, 0x51
	// ProtocolVersion is bumped on any incompatible frame or payload
	// change; a coordinator rejects other versions at the frame layer.
	// Version 4 has no worker sessions: Hello carries the shared secret
	// alone and Welcome the shard lease. Version 5 changes what a Fig. 5
	// shard holds (only dies of three or more faults, in other spans)
	// but not its form, so only the version tells a mixed build apart.
	// Version 6 does the same for a quality shard under soft errors:
	// each arm draws its flips from its own stream, and a recovery
	// campaign's later policy stages hold only P-ECC and ECC.
	ProtocolVersion = 6
	headerSize      = 12
	// MaxFramePayload bounds a single frame. A shard result is at most a
	// few hundred KB of accumulator state at paper-scale budgets; 64 MB
	// leaves two orders of magnitude of headroom while making a corrupt
	// length field detectable before any allocation happens.
	MaxFramePayload = 64 << 20
	// MaxHelloPayload caps a connection's first frame, read before the
	// peer has authenticated. Hello is a shared secret and ClientHello a
	// token and a shared secret, each string behind an 8-byte count, so a
	// client's two strings fit when together they are at most
	// MaxHelloPayload-16 bytes.
	MaxHelloPayload = 4 << 10
)

const (
	// FlagGzip, the type byte's high bit, marks a frame whose payload is
	// gzip-compressed. The length and CRC fields cover the compressed
	// wire bytes, so every receiver delimits and validates the frame
	// before inflating it. It is the only frame flag.
	FlagGzip = 0x80

	// CompressMin is the smallest payload senders bother compressing.
	// Below it the gzip header overhead and the extra CPU beat any
	// saving; shard-result blobs are the payloads that matter.
	CompressMin = 1 << 10
)

// MsgType enumerates the protocol's frame types.
type MsgType byte

const (
	// MsgHello opens a worker connection (worker -> coordinator) and
	// carries the shared secret.
	MsgHello MsgType = iota + 1
	// MsgWelcome acknowledges Hello (coordinator -> worker) and carries
	// the shard lease the worker's heartbeat follows.
	MsgWelcome
	// MsgJob assigns one shard of a campaign to a worker.
	MsgJob
	// MsgResult delivers a computed shard payload back to the coordinator.
	MsgResult
	// MsgJobError reports that a worker could not compute an assigned
	// shard (unencodable shard type, plan mismatch, experiment error).
	MsgJobError
	// MsgHeartbeat refreshes the leases of the in-flight jobs it lists;
	// the coordinator echoes an empty heartbeat as a pong.
	MsgHeartbeat
	// MsgCancel tells a worker to abandon the listed jobs (all in-flight
	// jobs when the list is empty).
	MsgCancel
	// MsgDone tells a worker the coordinator is finished for good; the
	// worker exits cleanly instead of reconnecting.
	MsgDone

	// The client half of the protocol: the campaign-submission surface of
	// `faultmem serve`.

	// MsgClientHello opens a client connection (client -> server): an
	// empty token requests a new client session, a previous token
	// requests session resume (re-attaching running jobs and draining
	// results buffered while disconnected).
	MsgClientHello
	// MsgClientWelcome acknowledges ClientHello (server -> client) and
	// carries the session token plus the server's draining state.
	MsgClientWelcome
	// MsgSubmit submits one campaign: a registry name plus its Spec.
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

// messages names each frame type and builds the message its payload
// decodes into.
var messages = [msgTypeEnd]struct {
	name string
	new  func() Message
}{
	MsgHello:         {"hello", func() Message { return new(Hello) }},
	MsgWelcome:       {"welcome", func() Message { return new(Welcome) }},
	MsgJob:           {"job", func() Message { return new(Job) }},
	MsgResult:        {"result", func() Message { return new(Result) }},
	MsgJobError:      {"joberror", func() Message { return new(JobError) }},
	MsgHeartbeat:     {"heartbeat", func() Message { return new(Heartbeat) }},
	MsgCancel:        {"cancel", func() Message { return new(Cancel) }},
	MsgDone:          {"done", func() Message { return new(Done) }},
	MsgClientHello:   {"clienthello", func() Message { return new(ClientHello) }},
	MsgClientWelcome: {"clientwelcome", func() Message { return new(ClientWelcome) }},
	MsgSubmit:        {"submit", func() Message { return new(Submit) }},
	MsgSubmitReply:   {"submitreply", func() Message { return new(SubmitReply) }},
	MsgJobControl:    {"jobcontrol", func() Message { return new(JobControl) }},
	MsgJobInfo:       {"jobinfo", func() Message { return new(JobInfo) }},
	MsgSnapshot:      {"snapshot", func() Message { return new(Snapshot) }},
	MsgFinal:         {"final", func() Message { return new(Final) }},
}

func (t MsgType) valid() bool { return t >= MsgHello && t < msgTypeEnd }

func (t MsgType) String() string {
	if t.valid() {
		return messages[t].name
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// FrameError is a frame-layer validation failure. Fatal errors mean the
// byte stream can no longer be trusted to be frame-aligned (bad magic,
// bad version, oversized length, truncation mid-frame): the receiver
// must drop the connection — the leases survive and the peer
// reconnects. Non-fatal errors (checksum mismatch, unknown type, a
// payload that does not decode) consumed a complete, well-delimited
// frame: the receiver rejects the frame and keeps the connection.
type FrameError struct {
	Fatal  bool
	Reason string
	// Err is the read error that cut the frame short, if any, so callers
	// can tell an orderly close (net.ErrClosed) from a dropped link.
	Err error
}

// Unwrap returns the read error behind a truncated frame.
func (e *FrameError) Unwrap() error { return e.Err }

// Recoverable reports whether err, from ReadFrame or DecodeMessage, is a
// non-fatal *FrameError: one complete, well-delimited frame was read and
// rejected, so the receiver skips it and keeps the connection.
func Recoverable(err error) bool {
	var fe *FrameError
	return errors.As(err, &fe) && !fe.Fatal
}

func (e *FrameError) Error() string {
	kind := "recoverable"
	if e.Fatal {
		kind = "fatal"
	}
	return fmt.Sprintf("sweep: %s frame error: %s", kind, e.Reason)
}

// AppendFrame appends one frame carrying payload to dst and returns the
// extended slice. FlagGzip in flags marks a payload the caller has
// already compressed. It panics on an invalid type, flags other than
// FlagGzip or an oversized payload — callers bound payload sizes before
// framing.
func AppendFrame(dst []byte, t MsgType, flags byte, payload []byte) []byte {
	if !t.valid() || flags&^FlagGzip != 0 || len(payload) > MaxFramePayload {
		panic(fmt.Sprintf("sweep: cannot frame %v with flags %#02x and %d payload bytes", t, flags, len(payload)))
	}
	dst = slices.Grow(dst, headerSize+len(payload))
	dst = append(dst, magic0, magic1, ProtocolVersion, byte(t)|flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// WriteMessage frames m, uncompressed, and writes the frame to w in a
// single Write call, so concurrent writers serialized by a mutex never
// interleave partial frames.
func WriteMessage(w io.Writer, m Message) error {
	_, err := w.Write(AppendFrame(nil, m.msgType(), 0, m.appendTo(nil)))
	return err
}

// readHeader reads one frame header into hdr and returns the declared
// payload length. It returns io.EOF at a clean frame boundary; every
// other failure is fatal: a header that does not parse, or declares more
// than limit payload bytes, means the stream is not frame-aligned or not
// worth reading.
func readHeader(r io.Reader, hdr []byte, limit int) (int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated header: %v", err), Err: err}
	}
	var reason string
	n := binary.BigEndian.Uint32(hdr[4:8])
	switch {
	case hdr[0] != magic0 || hdr[1] != magic1:
		reason = fmt.Sprintf("bad magic %#02x%02x", hdr[0], hdr[1])
	case hdr[2] != ProtocolVersion:
		reason = fmt.Sprintf("unsupported protocol version %d", hdr[2])
	case int64(n) > int64(limit):
		reason = fmt.Sprintf("oversized frame: %d bytes", n)
	default:
		return int(n), nil
	}
	return 0, &FrameError{Fatal: true, Reason: reason}
}

// ReadFrame reads and validates one frame of at most limit payload bytes
// from r and returns its type, its flags and its payload, inflated when
// the frame carries FlagGzip. A clean EOF at a frame boundary returns
// io.EOF. Fatal *FrameErrors (desynchronized stream, a header declaring
// more than limit bytes, truncation mid-frame) require the caller to
// drop the connection; a header is refused before any payload byte is
// read or allocated. Non-fatal ones (checksum mismatch, unknown type, a
// payload that does not inflate or inflates past limit) consumed exactly
// one complete frame, and the caller may reject it and keep reading.
func ReadFrame(r io.Reader, limit int) (MsgType, byte, []byte, error) {
	var hdr [headerSize]byte
	n, err := readHeader(r, hdr[:], limit)
	if err != nil {
		return 0, 0, nil, err
	}
	t, flags := MsgType(hdr[3]&^FlagGzip), hdr[3]&FlagGzip
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated %v payload: %v", t, err), Err: err}
	}
	switch {
	case crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[8:12]):
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("%v frame checksum mismatch", t)}
	case !t.valid():
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("unknown frame type %d", byte(t))}
	case flags != 0:
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
	buf := make([]byte, headerSize)
	n, err := readHeader(r, buf, MaxFramePayload)
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf, n)[:headerSize+n]
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return nil, &FrameError{Fatal: true, Reason: fmt.Sprintf("truncated payload: %v", err), Err: err}
	}
	return buf, nil
}

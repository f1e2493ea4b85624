package sweep

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// gzipWriter compresses frame payloads at BestSpeed. BestSpeed is the
// right level here: shard-result blobs are fixed-width binary forms
// full of repeated bytes (runs of equal weights, zero high bytes),
// which deflate well even at the fastest setting, and the sender is a
// worker whose CPU belongs to shard compute. The zero value is ready to
// use. One gzipWriter reused across frames keeps its deflate state
// (about 1 MB, zeroed on every fresh writer) instead of building one per
// frame; Reset makes it emit exactly the bytes a fresh writer would. It
// is not safe for concurrent use.
type gzipWriter struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

// compress returns the gzip encoding of p. The result aliases g's
// buffer and is valid until the next call.
func (g *gzipWriter) compress(p []byte) []byte {
	g.buf.Reset()
	if g.zw == nil {
		zw, err := gzip.NewWriterLevel(&g.buf, gzip.BestSpeed)
		if err != nil {
			panic(fmt.Sprintf("sweep: gzip level rejected: %v", err)) // BestSpeed is always valid
		}
		g.zw = zw
	} else {
		g.zw.Reset(&g.buf)
	}
	g.zw.Write(p) // a bytes.Buffer writer cannot fail
	g.zw.Close()
	return g.buf.Bytes()
}

// gzipDecompress inflates a FlagGzip payload. The output is bounded at
// limit — the same cap the plain length field honors — so a
// decompression bomb cannot force an allocation the frame layer would
// never have allowed on the wire. Failures are recoverable FrameErrors:
// the frame was well-delimited and its CRC (over the compressed wire
// bytes) checked out, only the contents are bad.
func gzipDecompress(t MsgType, p []byte, limit int) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(p))
	if err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("%v frame: bad gzip payload: %v", t, err)}
	}
	// The trailer's last four bytes hold the inflated size (mod 2^32).
	// It sizes the output buffer in one allocation instead of a series
	// of doublings, but only as a hint: never past limit, nor past the
	// 1032-fold expansion that is deflate's maximum, so a lying trailer
	// cannot make a small frame allocate more than a real bomb could.
	hint := min(uint64(binary.LittleEndian.Uint32(p[len(p)-4:])), uint64(limit), 1032*uint64(len(p)))
	buf := bytes.NewBuffer(make([]byte, 0, int(hint)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(zr, int64(limit)+1)); err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("%v frame: corrupt gzip payload: %v", t, err)}
	}
	out := buf.Bytes()
	if len(out) > limit {
		return nil, &FrameError{Reason: fmt.Sprintf("%v frame: payload inflates past %d bytes", t, limit)}
	}
	return out, nil
}

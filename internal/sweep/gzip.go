package sweep

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// gzipCompress returns the gzip encoding of p. BestSpeed is the right
// level here: shard-result blobs are gob streams dominated by runs of
// repeated structure, which deflate well even at the fastest setting,
// and the sender is a worker whose CPU belongs to shard compute.
func gzipCompress(p []byte) []byte {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		panic(fmt.Sprintf("sweep: gzip level rejected: %v", err)) // BestSpeed is always valid
	}
	zw.Write(p) // a bytes.Buffer writer cannot fail
	zw.Close()
	return buf.Bytes()
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
	out, err := io.ReadAll(io.LimitReader(zr, int64(limit)+1))
	if err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("%v frame: corrupt gzip payload: %v", t, err)}
	}
	if len(out) > limit {
		return nil, &FrameError{Reason: fmt.Sprintf("%v frame: payload inflates past %d bytes", t, limit)}
	}
	return out, nil
}

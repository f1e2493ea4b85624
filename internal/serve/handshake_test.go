package serve_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"faultmem/internal/serve"
	"faultmem/internal/sweep"
)

// dialRaw opens a bare TCP connection to the server, for peers that do
// not speak the handshake properly.
func dialRaw(t *testing.T, srv *serve.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectHangUp requires the server to close conn within d without
// sending anything.
func expectHangUp(t *testing.T, conn net.Conn, d time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	n, err := conn.Read(make([]byte, 64))
	var ne net.Error
	switch {
	case n > 0:
		t.Fatalf("server answered with %d bytes instead of hanging up", n)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("server kept the connection open for %v", d)
	case err == nil:
		t.Fatal("empty read without an error")
	}
}

// TestServeCloseWithSilentPeer: a peer that connects and never sends its
// first frame must not hold up Close, and with it the SIGTERM drain.
func TestServeCloseWithSilentPeer(t *testing.T) {
	cfg := testConfig(t)
	cfg.Sweep.Lease = time.Minute // the handshake deadline must not be what frees Close
	srv := startServer(t, cfg)
	dialRaw(t, srv)
	// The accept loop takes connections in order: once a later client
	// is welcomed, the silent one is in its handshake.
	dial(t, srv, serve.Options{})

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		srv.Close()
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a peer that never sent its first frame")
	}
}

// TestServeDropsSilentPeer: a peer that sends no first frame within the
// pool's lease is hung up on.
func TestServeDropsSilentPeer(t *testing.T) {
	cfg := testConfig(t)
	cfg.Sweep.Lease = 100 * time.Millisecond
	srv := startServer(t, cfg)
	expectHangUp(t, dialRaw(t, srv), 2*time.Second)
}

// TestServeRefusesBadFirstFrame: before a peer has authenticated, the
// server neither allocates what a first frame's header declares beyond
// sweep.MaxHelloPayload nor accepts a first frame with any flag bit set;
// either way the connection is dropped at once.
func TestServeRefusesBadFirstFrame(t *testing.T) {
	srv := startServer(t, testConfig(t))

	var hello bytes.Buffer
	if err := sweep.WriteMessage(&hello, &sweep.ClientHello{Token: strings.Repeat("a", 255)}); err != nil {
		t.Fatal(err)
	}
	plain := hello.Bytes()
	huge := append([]byte(nil), plain[:12]...) // the frame header alone
	binary.BigEndian.PutUint32(huge[4:8], 64<<20)

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(plain[12:])
	zw.Close()
	gzipped := sweep.AppendFrame(nil, sweep.MsgClientHello, sweep.FlagGzip, z.Bytes())

	// The retired capability bit makes the type byte an unknown type.
	retired := append([]byte(nil), plain...)
	retired[3] |= 0x40

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"64 MiB hello header", huge},
		{"gzipped client hello", gzipped},
		{"client hello with the retired 0x40 flag", retired},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialRaw(t, srv)
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			expectHangUp(t, conn, time.Second)
		})
	}
}

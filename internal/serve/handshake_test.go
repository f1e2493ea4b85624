package serve_test

import (
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
// sweep.MaxHelloPayload nor inflates a compressed one; either way the
// connection is dropped at once.
func TestServeRefusesBadFirstFrame(t *testing.T) {
	srv := startServer(t, testConfig(t))

	huge := sweep.EncodeMessage(&sweep.Hello{})[:12] // the frame header alone
	binary.BigEndian.PutUint32(huge[4:8], 64<<20)

	plain := sweep.EncodeMessage(&sweep.ClientHello{Token: strings.Repeat("a", 255)})
	gzipped := sweep.AppendFrameFlags(nil, sweep.MsgClientHello, sweep.FlagGzip, plain[12:])
	if gzipped[3]&sweep.FlagGzip == 0 {
		t.Fatal("test ClientHello did not compress")
	}

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"64 MiB hello header", huge},
		{"gzipped client hello", gzipped},
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

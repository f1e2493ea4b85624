package serve_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// TestServeDropsSilentWorker: an authenticated worker that sends nothing
// after its Hello — no heartbeat, no result — is hung up on after two
// leases of silence and leaves the pool, so it no longer counts toward
// the scheduler's capacity or takes jobs.
func TestServeDropsSilentWorker(t *testing.T) {
	cfg := testConfig(t)
	cfg.Sweep.Lease = 200 * time.Millisecond
	srv := startServer(t, cfg)
	conn := dialRaw(t, srv)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := sweep.WriteMessage(conn, &sweep.Hello{}); err != nil {
		t.Fatal(err)
	}
	if m, ok := readMessage(t, conn).(*sweep.Welcome); !ok {
		t.Fatalf("handshake answered with %T", m)
	}
	waitWorkers(t, srv, 1)
	expectHangUp(t, conn, 10*cfg.Sweep.Lease)
	if n := srv.Workers(); n != 0 {
		t.Fatalf("Workers() = %d after the silent worker was dropped, want 0", n)
	}
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

// corruptFrame returns m framed with its checksum broken: a complete,
// well-delimited frame every receiver must reject and skip.
func corruptFrame(m sweep.Message) []byte {
	var b bytes.Buffer
	sweep.WriteMessage(&b, m) // a bytes.Buffer takes every write
	frame := b.Bytes()
	frame[8] ^= 0xff // the first byte of the CRC-32
	return frame
}

// readMessage reads and decodes one frame from conn.
func readMessage(t *testing.T, conn net.Conn) sweep.Message {
	t.Helper()
	mt, _, payload, err := sweep.ReadFrame(conn, sweep.MaxFramePayload)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	m, err := sweep.DecodeMessage(mt, payload)
	if err != nil {
		t.Fatalf("decode %v: %v", mt, err)
	}
	return m
}

// TestServeCorruptFrameKeepsClientSession: the server skips a
// checksum-corrupt frame on a live client session and still serves the
// next frame on the same connection.
func TestServeCorruptFrameKeepsClientSession(t *testing.T) {
	srv := startServer(t, testConfig(t))
	conn := dialRaw(t, srv)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := sweep.WriteMessage(conn, &sweep.ClientHello{}); err != nil {
		t.Fatal(err)
	}
	if m, ok := readMessage(t, conn).(*sweep.ClientWelcome); !ok {
		t.Fatalf("handshake answered with %T", m)
	}
	if _, err := conn.Write(corruptFrame(&sweep.Submit{Ref: 1, Experiment: "fig5"})); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteMessage(conn, &sweep.Submit{Ref: 2, Experiment: "no-such-experiment"}); err != nil {
		t.Fatal(err)
	}
	m, ok := readMessage(t, conn).(*sweep.SubmitReply)
	if !ok || m.Ref != 2 || m.ErrMsg == "" {
		t.Fatalf("submit after a corrupt frame answered with %+v", m)
	}
}

// TestClientSkipsCorruptFrame: the client skips a checksum-corrupt frame
// from the server and still takes the next frame on the same
// connection, the reply its Submit waits for.
func TestClientSkipsCorruptFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			for _, want := range []sweep.MsgType{sweep.MsgClientHello, sweep.MsgSubmit} {
				mt, _, payload, err := sweep.ReadFrame(conn, sweep.MaxFramePayload)
				if err != nil {
					return err
				}
				if mt != want {
					return fmt.Errorf("got a %v frame, want %v", mt, want)
				}
				if mt == sweep.MsgClientHello {
					if err := sweep.WriteMessage(conn, &sweep.ClientWelcome{Token: "t"}); err != nil {
						return err
					}
					continue
				}
				m, err := sweep.DecodeMessage(mt, payload)
				if err != nil {
					return err
				}
				ref := m.(*sweep.Submit).Ref
				if _, err := conn.Write(corruptFrame(&sweep.SubmitReply{Ref: ref, JobID: 41})); err != nil {
					return err
				}
				if err := sweep.WriteMessage(conn, &sweep.SubmitReply{Ref: ref, JobID: 42}); err != nil {
					return err
				}
			}
			// Hold the connection until the client hangs up.
			_, err = conn.Read(make([]byte, 1))
			if err == io.EOF {
				err = nil
			}
			return err
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := serve.Dial(ctx, ln.Addr().String(), serve.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(ctx, serve.Campaign{Experiment: "fig5"})
	if err != nil || id != 42 {
		t.Fatalf("Submit = %d, %v; want job 42 from the frame after the corrupt one", id, err)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

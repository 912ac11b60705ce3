package main

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/client"
)

// TestServeRoundTrip runs the server on a loopback listener, drives it with
// the real client — create, append, read back, force — and then stops it:
// serve must return nil, which means the volume shut down clean.
func TestServeRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- serve(l, stop, "small", true, true, 0, 0, 0) }()

	cl, err := client.Dial(l.Addr().String(), client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first := bytes.Repeat([]byte("cedar "), 100)
	h, err := cl.Create(ctx, "srv/a", first)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h, err = cl.Open(ctx, "srv/a", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	more := []byte("group commit")
	if _, _, err := h.WriteAt(ctx, more, int64(len(first))); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	want := append(append([]byte(nil), first...), more...)
	got := make([]byte, len(want))
	if n, err := h.ReadAt(ctx, got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("ReadAt = %d, %v; content matches %v", n, err, bytes.Equal(got, want))
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if seq, err := cl.Force(ctx); err != nil || seq == 0 {
		t.Fatalf("Force = %d, %v", seq, err)
	}
	if n := cl.ProtocolErrors(); n != 0 {
		t.Fatalf("%d protocol errors", n)
	}
	cl.Close()

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v (want a clean shutdown)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after stop")
	}
}

// TestServeRejectsUnknownGeometry checks serve refuses a bad -geometry
// before serving, and releases the listener it was given.
func TestServeRejectsUnknownGeometry(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := serve(l, make(chan struct{}), "huge", false, false, 0, 0, 0); err == nil {
		t.Fatal("serve accepted an unknown geometry")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener still open after serve returned")
	}
}

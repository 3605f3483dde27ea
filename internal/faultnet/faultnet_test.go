package faultnet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes every byte back until the
// peer disconnects. Returns its address and a stop func.
func echoServer(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(c, c)
				_ = c.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); wg.Wait() }
}

// TestProxyPassThrough: zero config forwards traffic unchanged.
func TestProxyPassThrough(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	msg := []byte("hello through the proxy")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %q want %q", got, msg)
	}
	if p.Kills() != 0 {
		t.Fatalf("pass-through proxy killed %d connections", p.Kills())
	}
}

// TestProxyKillsAfterBudget: with KillEveryWrites set, the proxy severs
// the connection after a bounded number of server→client frames, and
// redialling works.
func TestProxyKillsAfterBudget(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{Seed: 1, KillEveryWrites: 4})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	for round := 0; round < 3; round++ {
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatalf("round %d dial: %v", round, err)
		}
		// Ping-pong one byte at a time so each echo is one
		// server→client write; the kill budget is in [2, 6).
		survived := 0
		for i := 0; i < 50; i++ {
			if _, err := conn.Write([]byte{byte(i)}); err != nil {
				break
			}
			one := make([]byte, 1)
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := io.ReadFull(conn, one); err != nil {
				break
			}
			survived++
		}
		_ = conn.Close()
		if survived >= 50 {
			t.Fatalf("round %d: connection survived %d echoes, kill never fired", round, survived)
		}
	}
	if p.Kills() < 3 {
		t.Fatalf("got %d kills, want >= 3", p.Kills())
	}
}

// TestProxyDeterministicSchedule: the same seed yields the same kill
// points for the same traffic shape.
func TestProxyDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []int {
		addr, stop := echoServer(t)
		defer stop()
		p, err := NewProxy(addr, Config{Seed: seed, KillEveryWrites: 6})
		if err != nil {
			t.Fatalf("proxy: %v", err)
		}
		defer p.Close()
		var points []int
		for round := 0; round < 3; round++ {
			conn, err := net.Dial("tcp", p.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			survived := 0
			for i := 0; i < 100; i++ {
				if _, err := conn.Write([]byte{1}); err != nil {
					break
				}
				one := make([]byte, 1)
				_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, err := io.ReadFull(conn, one); err != nil {
					break
				}
				survived++
			}
			_ = conn.Close()
			points = append(points, survived)
		}
		return points
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

// TestProxyPartitionAndHeal: a partition severs live connections and
// kills new ones; healing restores service.
func TestProxyPartitionAndHeal(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte{1}); err != nil {
		t.Fatalf("write: %v", err)
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(conn, one); err != nil {
		t.Fatalf("read: %v", err)
	}

	p.Partition()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, one); err == nil {
		t.Fatal("read succeeded across a partition")
	}
	_ = conn.Close()

	p.Heal()
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte{2}); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn2, one); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

// TestWrapListenerInjects: WrapListener applies faults to accepted
// conns directly (server-side injection, no proxy hop).
func TestWrapListenerInjects(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln := WrapListener(raw, Config{Seed: 3, KillEveryWrites: 3})
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(c, c)
				_ = c.Close()
			}()
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	survived := 0
	for i := 0; i < 50; i++ {
		if _, err := conn.Write([]byte{1}); err != nil {
			break
		}
		one := make([]byte, 1)
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(conn, one); err != nil {
			break
		}
		survived++
	}
	_ = conn.Close()
	if survived >= 50 {
		t.Fatal("wrapped listener never killed the connection")
	}
	if ln.Kills() == 0 {
		t.Fatal("kill counter not incremented")
	}
	_ = raw.Close()
	wg.Wait()
}

// TestDisableFaults: after DisableFaults, fresh connections stop being
// killed.
func TestDisableFaults(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{Seed: 9, KillEveryWrites: 2})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.DisableFaults()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for i := 0; i < 20; i++ {
		if _, err := conn.Write([]byte{1}); err != nil {
			t.Fatalf("write %d failed after DisableFaults: %v", i, err)
		}
		one := make([]byte, 1)
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(conn, one); err != nil {
			t.Fatalf("read %d failed after DisableFaults: %v", i, err)
		}
	}
}

// TestProxyCutAtExactByteOffset: CutAtBytes severs the server→client
// stream after precisely the configured byte — the client receives an
// exact prefix of the stream, regardless of how writes were chunked,
// so a protocol test can provably truncate inside a length-prefixed
// frame.
func TestProxyCutAtExactByteOffset(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	const cut = 3137
	p, err := NewProxy(addr, Config{Seed: 1, CutAtBytes: cut})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// Push 10000 patterned bytes through the echo in odd-sized chunks
	// so the cut cannot land on a write boundary by accident.
	pattern := make([]byte, 10000)
	for i := range pattern {
		pattern[i] = byte(i * 31)
	}
	go func() {
		for off := 0; off < len(pattern); {
			n := 613
			if off+n > len(pattern) {
				n = len(pattern) - off
			}
			if _, err := conn.Write(pattern[off : off+n]); err != nil {
				return
			}
			off += n
		}
	}()

	got, _ := io.ReadAll(conn) // until the injected kill closes the conn
	if len(got) != cut {
		t.Fatalf("received %d bytes, want exactly %d", len(got), cut)
	}
	if !bytes.Equal(got, pattern[:cut]) {
		t.Fatalf("received bytes are not the exact stream prefix")
	}
	if p.Kills() != 1 {
		t.Fatalf("kills = %d, want 1", p.Kills())
	}
}

// TestProxyUpstreamCutAtExactByteOffset: behind NewUpstreamProxy the same
// cut lands in the client→server stream — the server receives an exact
// prefix of what the client sent, which is how a test truncates a
// publisher's frame.
func TestProxyUpstreamCutAtExactByteOffset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		got, _ := io.ReadAll(c) // until the injected kill closes the conn
		received <- got
	}()
	const cut = 3137
	p, err := NewUpstreamProxy(ln.Addr().String(), Config{Seed: 1, CutAtBytes: cut})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	pattern := make([]byte, 10000)
	for i := range pattern {
		pattern[i] = byte(i * 31)
	}
	for off := 0; off < len(pattern); off += 613 {
		if _, err := conn.Write(pattern[off:min(off+613, len(pattern))]); err != nil {
			break // the cut reached this side
		}
	}
	select {
	case got := <-received:
		if !bytes.Equal(got, pattern[:cut]) {
			t.Fatalf("server received %d bytes, want exactly the %d-byte prefix", len(got), cut)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the server's connection never ended")
	}
	if p.Kills() != 1 {
		t.Fatalf("kills = %d, want 1", p.Kills())
	}
}

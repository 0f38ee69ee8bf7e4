package server

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
)

// What one editor's connection costs the process at rest, both ends of a
// net.Pipe pair counted, settled heap per pair. Each heap budget is the
// value measured on an x86-64 Linux host with measuredOn plus 10 %,
// rounded up. Most of a pair's heap is the runtime's (net.Pipe, the
// goroutines, channels, size classes), which another Go release may lay
// out otherwise, so on another release the test checks only
// maxSubscribedPairBytes and the goroutine counts.
const (
	measuredOn = "go1.24"

	// maxIdlePairHeap: after hello and login. It measured 14,304 B, 8 KiB
	// of it the two codecs' receive buffers (277 KB while each codec held
	// a 64 KiB bufio reader and a 64 KiB bufio writer).
	maxIdlePairHeap = 15_800

	// maxSubscribedPairHeap: once the pair has opened a document of its
	// own. It measured 17,130 B.
	maxSubscribedPairHeap = 18_900

	// maxSubscribedPairBytes bounds heap plus goroutine stacks per
	// subscribed pair on every release. It measured 29,451 B.
	maxSubscribedPairBytes = 32 << 10
)

// TestConnectionCost gates what a connection costs at rest: 1000
// client/server pairs over net.Pipe, first idle, then each subscribed to a
// document of its own (one shared document would add a presence event per
// join to every earlier subscriber, a cost that grows with the number of
// pairs). Per pair it gates the settled heap, the goroutines exactly (the
// server's serve loop and the client's read loop, and the subscription's
// pump once subscribed), and heap plus stack once subscribed.
func TestConnectionCost(t *testing.T) {
	const pairs = 1000
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})
	users := make([]string, pairs)
	docs := make([]uint64, pairs)
	for i := range docs {
		users[i] = fmt.Sprintf("editor%d", i)
		d, err := eng.CreateDocument(users[i], "own")
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = uint64(d.ID())
	}

	base := settle(t, 0, 0)
	clients := make([]*client.Client, 0, pairs)
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	for i := range docs {
		serverEnd, clientEnd := net.Pipe()
		srv.accept(serverEnd)
		c, err := client.New(clientEnd, client.WithUser(users[i]))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	idle := settle(t, base.goroutines, 2*pairs)
	for i, c := range clients {
		if _, err := c.Open(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	subscribed := settle(t, base.goroutines, 3*pairs)
	runtime.KeepAlive(clients)

	perPair := func(f footprint, stack bool) float64 {
		b := f.heap - base.heap
		if stack {
			b += f.stack - base.stack
		}
		return float64(b) / pairs
	}
	idleHeap, subHeap, subBytes := perPair(idle, false), perPair(subscribed, false), perPair(subscribed, true)
	t.Logf("per pair: idle %.0f B heap, %.0f B heap and stack; subscribed %.0f B heap, %.0f B heap and stack",
		idleHeap, perPair(idle, true), subHeap, subBytes)
	if raceEnabled {
		return // the race detector adds shadow memory to every allocation
	}
	if !strings.HasPrefix(runtime.Version(), measuredOn+".") {
		t.Logf("heap budgets were measured on %s, not %s: checking heap and stack only", measuredOn, runtime.Version())
	} else {
		if idleHeap > maxIdlePairHeap {
			t.Errorf("an idle pair holds %.0f B of heap, budget %d", idleHeap, maxIdlePairHeap)
		}
		if subHeap > maxSubscribedPairHeap {
			t.Errorf("a subscribed pair holds %.0f B of heap, budget %d", subHeap, maxSubscribedPairHeap)
		}
	}
	if subBytes > maxSubscribedPairBytes {
		t.Errorf("a subscribed pair holds %.0f B of heap and stack, budget %d", subBytes, maxSubscribedPairBytes)
	}
}

type footprint struct {
	heap, stack uint64
	goroutines  int
}

// settle waits until the process runs base+want goroutines (want 0: any
// number) and returns its settled heap, stack and goroutine count; it
// fails the test if the count does not reach that within ten seconds.
func settle(t *testing.T, base, want int) footprint {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for want > 0 && runtime.NumGoroutine() != base+want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines above the start, want %d", runtime.NumGoroutine()-base, want)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return footprint{heap: m.HeapAlloc, stack: m.StackInuse, goroutines: runtime.NumGoroutine()}
}

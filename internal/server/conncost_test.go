package server

import (
	"fmt"
	"math"
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
// pump once subscribed), and heap plus stack once subscribed. A last leg
// opens packedPairs more pairs, each on a document of its own whose base
// goes out packed: per pair they must cost what a subscribed pair costs
// plus the replica's runes, within 10 %, so nothing that deflated or
// inflated the base stays behind.
func TestConnectionCost(t *testing.T) {
	const pairs = 1000
	// A packed document holds packedChars characters, 40 KiB of runes (an
	// exact number of heap pages) in its replica. Its text repeats one
	// 1 KiB paragraph, so its base packs to well under 4 KiB and no
	// connection buffer grows for it.
	const packedPairs, packedChars = 200, 10 << 10
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
	packedDocs := make([]uint64, packedPairs)
	text := strings.Repeat(prose(1<<10, 1), packedChars>>10)
	for i := range packedDocs {
		d, err := eng.CreateDocument(users[i], "packed")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AppendText(users[i], text); err != nil {
			t.Fatal(err)
		}
		d.Text() // the snapshot keeps the text it renders: before base, not after
		packedDocs[i] = uint64(d.ID())
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
	for i, doc := range packedDocs {
		serverEnd, clientEnd := net.Pipe()
		srv.accept(serverEnd)
		c, err := client.New(clientEnd, client.WithUser(users[i]))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if _, err := c.Open(doc); err != nil {
			t.Fatal(err)
		}
	}
	packed := settle(t, base.goroutines, 3*(pairs+packedPairs))
	runtime.KeepAlive(clients)

	perPair := func(f footprint, stack bool) float64 {
		b := f.heap - base.heap
		if stack {
			b += f.stack - base.stack
		}
		return float64(b) / pairs
	}
	idleHeap, subHeap, subBytes := perPair(idle, false), perPair(subscribed, false), perPair(subscribed, true)
	packedHeap := float64(packed.heap-subscribed.heap) / packedPairs
	t.Logf("per pair: idle %.0f B heap, %.0f B heap and stack; subscribed %.0f B heap, %.0f B heap and stack; packed %.0f B heap",
		idleHeap, perPair(idle, true), subHeap, subBytes, packedHeap)
	if raceEnabled {
		return // the race detector adds shadow memory to every allocation
	}
	if want := subHeap + 4*packedChars; math.Abs(packedHeap-want) > want/10 {
		t.Errorf("a pair on a packed document holds %.0f B of heap, want a subscribed pair's %.0f B plus its replica's %d B of runes, within 10 %%",
			packedHeap, subHeap, 4*packedChars)
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
// Heap and stack are each the least of three settled readings: something
// else allocating between the collections and the reading makes one read
// high, never low.
func settle(t *testing.T, base, want int) footprint {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for want > 0 && runtime.NumGoroutine() != base+want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines above the start, want %d", runtime.NumGoroutine()-base, want)
		}
		time.Sleep(time.Millisecond)
	}
	f := footprint{heap: math.MaxUint64, stack: math.MaxUint64, goroutines: runtime.NumGoroutine()}
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		f.heap, f.stack = min(f.heap, m.HeapAlloc), min(f.stack, m.StackInuse)
	}
	return f
}

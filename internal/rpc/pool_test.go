package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetBufPolicy: a buffer is asked for by capacity and gets at least
// that; a miss is made exactly as big as asked (never rounded up), nil and
// oversize buffers are not kept, a pooled buffer too small for the asker
// is not what it gets, and a GetBuf/PutBuf round trip allocates nothing.
func TestGetBufPolicy(t *testing.T) {
	for _, n := range []int{0, 1, 511, smallFrame - 1, smallFrame, bigFrame - 1, bigFrame, bigFrame + 1, 1 << 20} {
		b := GetBuf(n)
		if len(b) != 0 || cap(b) < n {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b), cap(b))
		}
		PutBuf(b)
	}
	PutBuf(nil)
	// Nothing above maxPooled is kept, so an oversize request is always a
	// miss: exactly sized, and a different buffer every time.
	huge := GetBuf(maxPooled + 3)
	if cap(huge) != maxPooled+3 {
		t.Fatalf("a miss was rounded: asked %d, got cap %d", maxPooled+3, cap(huge))
	}
	huge = append(huge, 7)
	PutBuf(huge)
	if again := GetBuf(maxPooled + 3); cap(again) != maxPooled+3 || aliases(again, huge) {
		t.Fatalf("an oversize buffer came back from the pool")
	}
	// A small buffer parked in a free list never answers a bigger request
	// of the same list.
	for i := 0; i < 100; i++ {
		PutBuf(make([]byte, 0, 100))
		if b := GetBuf(4000); cap(b) < 4000 {
			t.Fatalf("round %d: GetBuf(4000) handed out cap %d", i, cap(b))
		}
		PutBuf(make([]byte, 0, smallFrame))
		if b := GetBuf(2 * smallFrame); cap(b) < 2*smallFrame {
			t.Fatalf("round %d: GetBuf(%d) handed out cap %d", i, 2*smallFrame, cap(b))
		}
		PutBuf(make([]byte, 0, bigFrame))
		if b := GetBuf(2 * bigFrame); cap(b) < 2*bigFrame {
			t.Fatalf("round %d: GetBuf(%d) handed out cap %d", i, 2*bigFrame, cap(b))
		}
	}
	if raceEnabled {
		return
	}
	for _, n := range []int{100, smallFrame, bigFrame} {
		PutBuf(GetBuf(n))
		if allocs := testing.AllocsPerRun(1000, func() { PutBuf(GetBuf(n)) }); allocs != 0 {
			t.Errorf("GetBuf(%d)/PutBuf: %.1f allocations a round trip, want 0", n, allocs)
		}
	}
}

// TestReplyFramesHaveTheirOwnList: a serve lookup puts back its ~500 B
// request and its 22 KB reply frame; the next lookup's reply must find the
// latter whichever went back first. With requests and replies on one list
// (every buffer under 64 KB) a reply-sized ask that met the request buffer
// dropped it and allocated 22 KB. sync.Pool may drop a buffer (at random
// under -race): one reuse in many rounds is asked for.
func TestReplyFramesHaveTheirOwnList(t *testing.T) {
	const reply, request = 22 << 10, 500
	reused := 0
	for i := 0; i < 200; i++ {
		was := GetBuf(reply)
		PutBuf(GetBuf(request))
		PutBuf(was)
		again := GetBuf(reply)
		if aliases(again, was) {
			reused++
		}
		PutBuf(again)
	}
	if reused == 0 {
		t.Fatal("no reply-sized ask was answered with the reply-sized buffer put back before it")
	}
}

// TestFrameIsReusedByTheNextRead: a frame handed back with PutBuf is what
// a later readFrame of a frame that fits reads into — over TCP every
// reply used to be a fresh, zeroed allocation because nothing ever put
// one back where readFrame looks. sync.Pool may drop a buffer (it does so
// at random under -race), so the test asks for one reuse in many rounds.
func TestFrameIsReusedByTheNextRead(t *testing.T) {
	var wire bytes.Buffer
	const rounds, size = 200, 100 << 10
	for i := 0; i < rounds; i++ {
		var prefix [4]byte
		binary.LittleEndian.PutUint32(prefix[:], size)
		wire.Write(prefix[:])
		wire.Write(bytes.Repeat([]byte{byte(i)}, size))
	}
	br := bufio.NewReader(&wire)
	var last []byte
	reused := 0
	for i := 0; i < rounds; i++ {
		frame, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != size || frame[0] != byte(i) || frame[size-1] != byte(i) {
			t.Fatalf("round %d: frame of %d bytes starting %d", i, len(frame), frame[0])
		}
		if last != nil && aliases(frame, last) {
			reused++
		}
		last = frame
		PutBuf(frame)
	}
	if reused == 0 {
		t.Fatalf("no frame of %d was read into a recycled buffer", rounds)
	}
}

// TestTCPEchoReplyIsRecycledOnce: the server loop recycles a handler's
// reply after writing it — unless the reply is the request frame again
// (an echo handler), which must go back to the pool once, not twice: a
// buffer put twice is handed to two readers at once. 1,000 concurrent
// calls with distinct payloads, every echo checked; -race sees the shared
// buffer if there is one.
func TestTCPEchoReplyIsRecycledOnce(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.Listen(func(method string, body []byte) ([]byte, error) {
		switch method {
		case "whole":
			return body, nil
		case "tail":
			return body[len(body)/2:], nil
		}
		return append(GetBuf(len(body)), body...), nil // a reply of its own
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 125
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				method := []string{"whole", "tail", "copy"}[i%3]
				payload := bytes.Repeat([]byte(fmt.Sprintf("%d/%d;", g, i)), 1+(i*37)%3000)
				want := payload
				if method == "tail" {
					want = payload[len(payload)/2:]
				}
				out, err := tr.Call(addr, method, payload)
				if err != nil {
					t.Errorf("worker %d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(out, want) {
					t.Errorf("worker %d call %d (%s): echo of %d bytes came back as %d different bytes", g, i, method, len(want), len(out))
					return
				}
				PutBuf(out)
			}
		}(g)
	}
	wg.Wait()
}

// partsConn records the size of every Write it is handed. It has only
// net.Conn's methods, so a net.Buffers reaches it one Write per part.
type partsConn struct {
	net.Conn
	parts []int
}

func (c *partsConn) Write(b []byte) (int, error) {
	c.parts = append(c.parts, len(b))
	return len(b), nil
}

// plainWrites counts the Write calls a real TCP connection gets. Embedding
// the concrete type keeps its vectored path: a net.Buffers goes to the
// socket as one writev and never through Write.
type plainWrites struct {
	*net.TCPConn
	n atomic.Int64
}

func (c *plainWrites) Write(b []byte) (int, error) {
	c.n.Add(1)
	return c.TCPConn.Write(b)
}

// TestFrameIsOneVectoredWrite: a frame of any size is handed to the
// connection once — prefix and head in one part, the body in the other,
// neither split nor copied through a 4 KB buffer — and on a TCP connection
// that hand-over is the vectored one, so no frame costs a plain Write
// before or after it. (The writev itself cannot be counted from here: it
// is reached through an unexported interface of package net.)
func TestFrameIsOneVectoredWrite(t *testing.T) {
	sizes := []int{0, 1, 4087, 4088, 4089, 5 << 10, 64 << 10, 1 << 20}
	pc := &partsConn{}
	tc := newTCPConn(pc)
	for _, n := range sizes {
		pc.parts = pc.parts[:0]
		head := append(frameHead(nil), statusOK)
		if err := tc.writeFrame(head, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if want := []int{5, n}; !slices.Equal(pc.parts, want) {
			t.Errorf("body of %d bytes reached the connection as writes of %v, want %v", n, pc.parts, want)
		}
		if got := binary.LittleEndian.Uint32(head); got != uint32(1+n) {
			t.Errorf("body of %d bytes: length prefix %d", n, got)
		}
	}
	var head []byte
	body := make([]byte, 5<<10)
	if allocs := testing.AllocsPerRun(50, func() {
		pc.parts = pc.parts[:0]
		head = append(frameHead(head), statusOK)
		if err := tc.writeFrame(head, body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("writing a frame makes %v allocations", allocs)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for _, n := range sizes {
			frame, err := readFrame(br)
			if err == nil && (len(frame) != 1+n || (n > 0 && frame[n] != byte(n))) {
				err = fmt.Errorf("frame of %d bytes for a body of %d", len(frame), n)
			}
			if err != nil {
				got <- err
				return
			}
			PutBuf(frame)
		}
		got <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pw := &plainWrites{TCPConn: conn.(*net.TCPConn)}
	tc = newTCPConn(pw)
	for _, n := range sizes {
		body := bytes.Repeat([]byte{byte(n)}, n)
		if err := tc.writeFrame(append(frameHead(nil), statusOK), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if n := pw.n.Load(); n != 0 {
		t.Errorf("%d frames cost %d plain Write calls beside their vectored writes", len(sizes), n)
	}
}

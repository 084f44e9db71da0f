package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"unsafe"
)

// The TCP transport frames every call with a 4-byte little-endian length
// prefix followed by a flat binary header — no per-connection codec
// state, no type descriptors on the wire:
//
//	request:  [u32 frameLen][uvarint methodLen][method bytes][body bytes]
//	response: [u32 frameLen][status byte][if status!=0: uvarint errLen + err bytes][body bytes]
//
// frameLen counts everything after the prefix. Bodies are opaque: the ps
// package's wire format already encoded them. Frame buffers are pooled; the response body returned by
// Call is a sub-slice of a pooled frame that the caller owns and may
// recycle once decoded.

const (
	// maxFrame rejects absurd frame lengths before allocating (a corrupt
	// or hostile peer could otherwise request a multi-GB buffer).
	maxFrame = 1 << 30

	statusOK  byte = 0
	statusErr byte = 1
)

// The frame pool holds every wire buffer of the process — the ps codec's
// requests, envelopes and replies as well as the frames read here — so a
// buffer recycled on one side of a call is found by the other (who gets
// and who puts: DESIGN.md "Frame ownership"). Three free lists, split at
// smallFrame and bigFrame, keep the three populations apart — requests and
// clock calls, a serve lookup's row reply, a training batch's — so that
// each finds a buffer its own kind put back; within a list a buffer too
// small for the asker is dropped, not put back, so a list never fills with
// buffers nobody can use.
const (
	smallFrame = 4 << 10
	bigFrame   = 64 << 10
	maxPooled  = 4 << 20 // one giant PullAll must not pin its buffer forever
)

var framePool [3]sync.Pool

// boxes holds the empty *[]byte a free list keeps a buffer in: GetBuf
// leaves its box here and PutBuf takes one, so a recycle does not move a
// slice header to the heap.
var boxes sync.Pool

func frameClass(n int) int {
	switch {
	case n < smallFrame:
		return 0
	case n < bigFrame:
		return 1
	}
	return 2
}

// GetBuf returns an empty buffer of capacity at least n, pooled when the
// pool has one that fits and exactly n otherwise. Its bytes are not
// cleared.
func GetBuf(n int) []byte {
	if n <= maxPooled {
		if p, ok := framePool[frameClass(n)].Get().(*[]byte); ok {
			b := *p
			*p = nil
			boxes.Put(p)
			if cap(b) >= n {
				return b[:0]
			}
		}
	}
	return make([]byte, 0, n)
}

// PutBuf recycles b, which the caller must no longer reference. Safe on
// nil and on buffers that did not come from GetBuf (a handler's own make,
// a replayed reply's copy).
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooled {
		return
	}
	p, _ := boxes.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b
	framePool[frameClass(cap(b))].Put(p)
}

// tcpConn bundles a pooled connection with its buffered reader and the
// write vector of the frame it is sending. Writes are not buffered: a
// frame leaves as one vectored write whatever its size.
type tcpConn struct {
	conn net.Conn
	br   *bufio.Reader
	vec  net.Buffers
	arr  [2][]byte // vec's backing array: WriteTo consumes vec
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{conn: c, br: bufio.NewReader(c)}
}

// frameHead starts the head of a frame: room for the length prefix
// writeFrame fills in, in a buffer the caller appends the head proper to.
func frameHead(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// writeFrame sends head (started with frameHead, laid out by the caller)
// followed by body under one length prefix, as one vectored write — on a
// TCP connection one writev, nothing copied: through a bufio.Writer every
// frame over its 4 KB cost a 4 KB copy and two write calls.
func (c *tcpConn) writeFrame(head, body []byte) error {
	binary.LittleEndian.PutUint32(head, uint32(len(head)-4+len(body)))
	c.arr = [2][]byte{head, body}
	c.vec = c.arr[:]
	raceReleaseFrame()
	_, err := c.vec.WriteTo(c.conn)
	return err
}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// caller must PutBuf it (or hand ownership of a sub-slice onward).
func readFrame(br *bufio.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(br, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame length %d exceeds limit", n)
	}
	frame := GetBuf(int(n))[:n]
	if _, err := io.ReadFull(br, frame); err != nil {
		PutBuf(frame)
		return nil, err
	}
	raceAcquireFrame()
	return frame, nil
}

// aliases reports whether a's backing array lies inside b's.
func aliases(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p < lo+uintptr(cap(b))
}

// TCP is a Transport whose endpoints are real TCP listeners on localhost.
// Each Register starts a listener; the returned address (host:port) is the
// endpoint name used by Call. Connections are pooled per destination.
type TCP struct {
	mu        sync.Mutex
	listeners map[string]net.Listener
	pools     map[string]chan *tcpConn
	// accepted tracks the server-side connections of each listener.
	// Deregister and Close sever them along with the listener itself:
	// without this, a "restarted" endpoint would keep serving requests on
	// connections accepted by its previous incarnation, which no real
	// process restart can do.
	accepted map[string]map[net.Conn]struct{}
	closed   bool
}

// NewTCP returns a TCP transport.
func NewTCP() *TCP {
	return &TCP{
		listeners: make(map[string]net.Listener),
		pools:     make(map[string]chan *tcpConn),
		accepted:  make(map[string]map[net.Conn]struct{}),
	}
}

// Listen starts a listener on an ephemeral localhost port, serves h on it,
// and returns the bound address. This is the usual way to create a TCP
// endpoint when the caller does not care about the port.
func (t *TCP) Listen(h Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	t.mu.Lock()
	t.listeners[addr] = ln
	t.mu.Unlock()
	go t.serve(addr, ln, h)
	return addr, nil
}

// Register implements Transport. addr must be a host:port to bind.
func (t *TCP) Register(addr string, h Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if old, ok := t.listeners[addr]; ok {
		old.Close()
	}
	t.listeners[addr] = ln
	for c := range t.accepted[addr] {
		c.Close()
	}
	delete(t.accepted, addr)
	t.mu.Unlock()
	go t.serve(addr, ln, h)
	return nil
}

// Deregister implements Transport.
func (t *TCP) Deregister(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ln, ok := t.listeners[addr]; ok {
		ln.Close()
		delete(t.listeners, addr)
	}
	for c := range t.accepted[addr] {
		c.Close()
	}
	delete(t.accepted, addr)
	if pool, ok := t.pools[addr]; ok {
		close(pool)
		for c := range pool {
			c.conn.Close()
		}
		delete(t.pools, addr)
	}
}

// trackAccepted records a server-side connection under its listener so a
// later Deregister/Close severs it. Returns false when the endpoint was
// deregistered between Accept and here (the conn is closed instead).
func (t *TCP) trackAccepted(addr string, c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; !ok || t.closed {
		c.Close()
		return false
	}
	set := t.accepted[addr]
	if set == nil {
		set = make(map[net.Conn]struct{})
		t.accepted[addr] = set
	}
	set[c] = struct{}{}
	return true
}

func (t *TCP) untrackAccepted(addr string, c net.Conn) {
	t.mu.Lock()
	if set, ok := t.accepted[addr]; ok {
		delete(set, c)
	}
	t.mu.Unlock()
}

func (t *TCP) serve(addr string, ln net.Listener, h Handler) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !t.trackAccepted(addr, conn) {
			continue
		}
		go func(c net.Conn) {
			defer t.untrackAccepted(addr, c)
			defer c.Close()
			tc := newTCPConn(c)
			var head []byte
			for {
				frame, err := readFrame(tc.br)
				if err != nil {
					return
				}
				mlen, n := binary.Uvarint(frame)
				if n <= 0 || uint64(n)+mlen > uint64(len(frame)) {
					PutBuf(frame)
					return
				}
				method := string(frame[n : n+int(mlen)])
				body := frame[n+int(mlen):]
				out, herr := h(method, body)
				head = frameHead(head)
				if herr == nil {
					head = append(head, statusOK)
				} else {
					head = append(head, statusErr)
					msg := herr.Error()
					head = binary.AppendUvarint(head, uint64(len(msg)))
					head = append(head, msg...)
					out = nil
				}
				// The frame outlives the handler call: out may alias body
				// (echo-style handlers), so recycle only after the write —
				// and the reply with it, which the handler gave up by
				// returning it, unless it is the request frame again.
				err = tc.writeFrame(head, out)
				if !aliases(out, frame) {
					PutBuf(out)
				}
				PutBuf(frame)
				if err != nil {
					return
				}
			}
		}(conn)
	}
}

// getConn pops a pooled connection to addr or dials a fresh one. pooled
// reports which: a pooled conn may have died with the peer process while
// idle, and Call treats its first-reuse write failure as retryable by
// transparently redialing.
func (t *TCP) getConn(addr string) (c *tcpConn, pooled bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, errors.New("rpc: transport closed")
	}
	pool, ok := t.pools[addr]
	if !ok {
		pool = make(chan *tcpConn, 16)
		t.pools[addr] = pool
	}
	t.mu.Unlock()
	select {
	case c, ok := <-pool:
		if ok && c != nil {
			return c, true, nil
		}
	default:
	}
	c, err = t.dial(addr)
	return c, false, err
}

func (t *TCP) dial(addr string) (*tcpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	return newTCPConn(c), nil
}

// evictConns drains and closes every pooled connection to addr. A write
// or read failing mid-call means the peer process went away: its other
// pooled connections are equally dead, and leaving them in the pool makes
// every subsequent Call burn one failed round-trip per stale conn before
// dialing fresh.
func (t *TCP) evictConns(addr string) {
	t.mu.Lock()
	pool := t.pools[addr]
	t.mu.Unlock()
	if pool == nil {
		return
	}
	for {
		select {
		case c, ok := <-pool:
			if !ok {
				return // Deregister closed the pool and drained it
			}
			if c != nil {
				c.conn.Close()
			}
		default:
			return
		}
	}
}

func (t *TCP) putConn(addr string, c *tcpConn) {
	t.mu.Lock()
	pool, ok := t.pools[addr]
	t.mu.Unlock()
	if !ok {
		c.conn.Close()
		return
	}
	select {
	case pool <- c:
	default:
		c.conn.Close()
	}
}

// Call implements Transport. The returned body is owned by the caller
// (it is a sub-slice of a pooled frame no longer referenced here).
func (t *TCP) Call(addr, method string, body []byte) ([]byte, error) {
	c, pooled, err := t.getConn(addr)
	if err != nil {
		return nil, err
	}
	head := frameHead(GetBuf(4 + binary.MaxVarintLen64 + len(method)))
	head = binary.AppendUvarint(head, uint64(len(method)))
	head = append(head, method...)
	werr := c.writeFrame(head, body)
	if werr != nil && pooled {
		// The conn died idle in the pool — the usual sign the peer process
		// exited (and possibly restarted) since it was pooled. A failed
		// write means no complete frame reached any handler, so redialing
		// and resending is invisible to the caller; without this, the first
		// call after a peer restart burns an error on every pooled conn.
		c.conn.Close()
		t.evictConns(addr)
		if c, err = t.dial(addr); err != nil {
			PutBuf(head)
			return nil, err
		}
		werr = c.writeFrame(head, body)
	}
	PutBuf(head)
	if werr != nil {
		// A reset between connect and write is retryable: the request may
		// not have reached the handler. Evict the whole pool — the peer's
		// other pooled conns died with it.
		c.conn.Close()
		t.evictConns(addr)
		return nil, fmt.Errorf("%w: %s: mid-call write: %v", ErrUnreachable, addr, werr)
	}
	frame, err := readFrame(c.br)
	if err != nil {
		// Reset/EOF after the request was written: the handler may or may
		// not have run — the ps layer's dedup window makes the retry safe.
		c.conn.Close()
		t.evictConns(addr)
		return nil, fmt.Errorf("%w: %s: mid-call read: %v", ErrUnreachable, addr, err)
	}
	t.putConn(addr, c)
	if len(frame) < 1 {
		PutBuf(frame)
		return nil, fmt.Errorf("%w: %s: short response frame", ErrUnreachable, addr)
	}
	if frame[0] == statusErr {
		elen, n := binary.Uvarint(frame[1:])
		if n <= 0 || uint64(n)+elen > uint64(len(frame)-1) {
			PutBuf(frame)
			return nil, fmt.Errorf("%w: %s: corrupt error frame", ErrUnreachable, addr)
		}
		msg := string(frame[1+n : 1+n+int(elen)])
		PutBuf(frame)
		return nil, &RemoteError{Addr: addr, Method: method, Msg: msg}
	}
	// Ownership of the frame moves to the caller via the body sub-slice;
	// it must not also return to the pool here.
	return frame[1:], nil
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for addr, ln := range t.listeners {
		ln.Close()
		delete(t.listeners, addr)
	}
	for addr, set := range t.accepted {
		for c := range set {
			c.Close()
		}
		delete(t.accepted, addr)
	}
	for addr, pool := range t.pools {
		close(pool)
		for c := range pool {
			c.conn.Close()
		}
		delete(t.pools, addr)
	}
	return nil
}

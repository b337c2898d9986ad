package main

import (
	"bufio"
	"net"
	"sync"

	"repro/internal/server"
)

// stub is a responder that speaks growd's framing and does nothing
// else: every request is answered StatusOK, a GET with a fixed 32-byte
// body. Driving the real client against it prices client + loopback
// TCP + framing with no exec and no table behind them, which is the
// part of a round trip the server layer cannot be blamed for. It is
// built from the server package's exported frame helpers only.
type stub struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startStub() (*stub, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stub{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				serveStub(conn)
			}()
		}
	}()
	return s, nil
}

func (s *stub) addr() string { return s.ln.Addr().String() }

// close stops accepting and returns once every connection's goroutine
// has ended, which they do when the clients close.
func (s *stub) close() {
	s.ln.Close()
	s.wg.Wait()
}

// serveStub answers one connection in request order, flushing when no
// further request is already buffered — the same coalescing rule as the
// real server's writer.
func serveStub(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	body := make([]byte, valLen)
	var buf, out []byte
	for {
		id, kind, _, nbuf, err := server.ReadFrame(br, server.DefaultMaxFrame, buf)
		buf = nbuf
		if err != nil {
			return
		}
		out = server.BeginFrame(out[:0], id, server.StatusOK)
		if kind == server.OpGet {
			out = append(out, body...)
		}
		out = server.EndFrame(out, 0)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
}

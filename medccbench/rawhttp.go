package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
)

// rawConn is one keep-alive HTTP/1.1 connection of the load generator.
// Requests are prebuilt bytes and answers are parsed just far enough to
// frame the body, so the generator spends a few microseconds per request
// where net/http's client spends tens: on a small machine shared with
// the server, the generator's cost is kept out of the server's way. The
// socket is in blocking mode and read by plain system calls, so an
// answer wakes the waiting sender's own thread directly instead of
// passing through the runtime's network poller first.
type rawConn struct {
	f  *os.File
	br *bufio.Reader
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	f, err := c.(*net.TCPConn).File()
	c.Close()
	if err != nil {
		return nil, err
	}
	f.Fd() // switches the descriptor to blocking mode
	return &rawConn{f: f, br: bufio.NewReaderSize(f, 64<<10)}, nil
}

func (rc *rawConn) close() { _ = rc.f.Close() }

// rawRequest prebuilds a POST of body to path.
func rawRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: medcc\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
		path, len(body))
	b.Write(body)
	return b.Bytes()
}

var errFraming = errors.New("raw http: malformed response")

// roundTrip writes one prebuilt request and reads the status and body
// of its answer into buf (fixed-length or chunked).
func (rc *rawConn) roundTrip(req []byte, buf *bytes.Buffer) (int, error) {
	if _, err := rc.f.Write(req); err != nil {
		return 0, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, errFraming
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, errFraming
	}
	length, chunked := -1, false
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, errFraming
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, errFraming
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	buf.Reset()
	switch {
	case chunked:
		for {
			l, err := rc.br.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(l, "\r\n")), 16, 64)
			if err != nil {
				return 0, errFraming
			}
			if n == 0 {
				// No trailers are sent; the last chunk ends with an empty line.
				if _, err := rc.br.ReadSlice('\n'); err != nil {
					return 0, err
				}
				return status, nil
			}
			if _, err := io.CopyN(buf, rc.br, n); err != nil {
				return 0, err
			}
			if _, err := rc.br.Discard(2); err != nil {
				return 0, err
			}
		}
	case length >= 0:
		_, err = io.CopyN(buf, rc.br, int64(length))
		return status, err
	}
	return 0, errFraming
}

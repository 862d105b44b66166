package server

import (
	"bufio"
	"fmt"
	"net"
)

// Client is a minimal session-protocol client: one connection, serial
// request/response. Transport failures surface as errors; protocol
// failures come back typed in the Response (OK=false, Code set). Not
// safe for concurrent use — run one Client per goroutine, which is
// also the server's concurrency model.
type Client struct {
	nc   net.Conn
	wbuf []byte // the last request frame, reused for the next
	sc   *bufio.Scanner
	seq  int64
}

// Dial connects to a session server. Call Hello before anything else.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	sc := bufio.NewScanner(nc)
	sc.Buffer(make([]byte, 0, 4096), maxFrameBytes)
	return &Client{nc: nc, sc: sc}, nil
}

// Conn exposes the underlying connection (tests sever it mid-session).
func (c *Client) Conn() net.Conn { return c.nc }

// Close severs the connection; the server releases every session it
// owns.
func (c *Client) Close() error { return c.nc.Close() }

// Do sends one request (stamping the sequence number) and reads its
// response.
func (c *Client) Do(req Request) (Response, error) {
	c.seq++
	req.Seq = c.seq
	var err error
	if c.wbuf, err = appendRequest(c.wbuf[:0], &req); err == nil {
		_, err = c.nc.Write(c.wbuf)
	}
	if err != nil {
		return Response{}, fmt.Errorf("server: send %s: %w", req.Op, err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, fmt.Errorf("server: read %s response: %w", req.Op, err)
		}
		return Response{}, fmt.Errorf("server: connection closed awaiting %s response", req.Op)
	}
	var resp Response
	if err := decodeResponse(c.sc.Bytes(), &resp); err != nil {
		return Response{}, fmt.Errorf("server: decode %s response: %w", req.Op, err)
	}
	return resp, nil
}

// Hello opens the session dialogue under a tenant identity.
func (c *Client) Hello(tenant string) (Response, error) {
	return c.Do(Request{Op: OpHello, Proto: ProtoVersion, Tenant: tenant})
}

// Compose requests a composition for a path-graph application.
func (c *Client) Compose(req Request) (Response, error) {
	req.Op = OpCompose
	return c.Do(req)
}

// Commit confirms a pending session before its commit deadline.
func (c *Client) Commit(session int64) (Response, error) {
	return c.Do(Request{Op: OpCommit, Session: session})
}

// Heartbeat proves liveness, extending the session's reap deadline.
func (c *Client) Heartbeat(session int64) (Response, error) {
	return c.Do(Request{Op: OpHeartbeat, Session: session})
}

// Recompose asks the server to migrate the session make-before-break.
func (c *Client) Recompose(session int64) (Response, error) {
	return c.Do(Request{Op: OpRecompose, Session: session})
}

// Teardown closes the session, releasing resources and quota.
func (c *Client) Teardown(session int64) (Response, error) {
	return c.Do(Request{Op: OpTeardown, Session: session})
}

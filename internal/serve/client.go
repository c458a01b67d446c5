package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Client is the thin client side of the analysis service: it submits
// requests to a gpd server and streams back stage progress and the result.
// The cmd/gp and cmd/gadgetcount -server modes are built on it.
type Client struct {
	base string
	hc   *http.Client
}

// Dial returns a client for a gpd address. Accepted forms:
//
//	unix:/path/to/gpd.sock   explicit unix socket
//	/path/to/gpd.sock        unix socket (any address containing a '/')
//	host:port                TCP
//	http://host:port         TCP, scheme explicit
//
// The GPD_ADDR environment variable conventionally carries the address
// (the CLIs use it as the -server default).
func Dial(addr string) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("serve: empty server address")
	}
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return unixClient(path), nil
	}
	if strings.Contains(addr, "/") && !strings.Contains(addr, "://") {
		return unixClient(addr), nil
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}, nil
}

func unixClient(path string) *Client {
	transport := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", path)
		},
	}
	// The host is a placeholder; the transport always dials the socket.
	return &Client{base: "http://gpd", hc: &http.Client{Transport: transport}}
}

// Run submits a request and streams the response: progress events go to
// the (optional) callback as they arrive, and the final result is
// returned. A server-side error arrives as an error here.
func (c *Client) Run(ctx context.Context, req Request, progress Progress) (*Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var msg jsonLine
		if err := json.Unmarshal(line, &msg); err != nil {
			return nil, fmt.Errorf("serve: bad response line: %w", err)
		}
		switch msg.Event {
		case "stage":
			if progress != nil && msg.StageEvent != nil {
				progress(*msg.StageEvent)
			}
		case "result":
			return msg.Result, nil
		case "error":
			return nil, fmt.Errorf("serve: server error: %s", msg.Error)
		default:
			return nil, fmt.Errorf("serve: unknown event %q", msg.Event)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("serve: response ended without a result")
}

// Stats fetches the server's /stats document.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: stats: %s", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitReady polls /healthz until the server answers or the deadline
// passes — how tests and the bench synchronize with a freshly started gpd.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(hreq)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("serve: server not ready: %w", err)
			}
			return fmt.Errorf("serve: server not ready")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

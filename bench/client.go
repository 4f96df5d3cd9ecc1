package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
)

// Headers that tie a server-side span to the client span that caused it
// in a traced run. amf-server ignores them.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// conn is one keep-alive connection to the server: requests on it are
// strictly sequential, like a client that waits for each reply.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // response body, reused
	tr   *tracer      // nil when untraced
}

func newConn(base string, tr *tracer) *conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
	}
	return &conn{base: base, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: tr}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// request maps an op onto the v1 wire API.
func (o op) request() (method, path string, body any) {
	switch o.Kind {
	case opWeight:
		return http.MethodPut, "/v1/jobs/" + o.Job + "/weight", api.WeightRequest{Weight: o.Weight}
	case opProgress:
		return http.MethodPost, "/v1/jobs/" + o.Job + "/progress", api.ProgressRequest{Done: o.Done}
	case opAdd:
		return http.MethodPost, "/v1/jobs", api.AddJobRequest{ID: o.Job, Weight: o.Weight, Demand: o.Demand}
	case opRemove:
		return http.MethodDelete, "/v1/jobs/" + o.Job, nil
	case opShares:
		return http.MethodGet, "/v1/jobs/" + o.Job + "/shares", nil
	default:
		return http.MethodGet, "/v1/allocation", nil
	}
}

// do sends one op and reads the whole reply. opID names the request in a
// traced run.
func (c *conn) do(ctx context.Context, opID int64, o op) error {
	var hdr [2]string
	if c.tr != nil {
		id, end := c.tr.beginClient(opID, o.Kind.class())
		defer end()
		hdr = [2]string{strconv.FormatInt(opID, 10), strconv.FormatInt(id, 10)}
	}
	method, path, body := o.request()
	_, err := c.call(ctx, method, path, body, hdr)
	return err
}

// call runs one request and returns the reply body, valid until the next
// call on this connection.
func (c *conn) call(ctx context.Context, method, path string, body any, hdr [2]string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hdr[0] != "" {
		req.Header.Set(opHeader, hdr[0])
		req.Header.Set(spanHeader, hdr[1])
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// populate registers the base jobs in one POST /v1/jobs:batch.
func (c *conn) populate(ctx context.Context, base []api.AddJobRequest) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/jobs:batch", api.BatchAddRequest{Jobs: base}, [2]string{})
	return err
}

// allocation reads and decodes GET /v1/allocation.
func (c *conn) allocation(ctx context.Context) (api.AllocationResponse, error) {
	var out api.AllocationResponse
	data, err := c.call(ctx, http.MethodGet, "/v1/allocation", nil, [2]string{})
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(data, &out)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"distlap/internal/service"
)

// maxConns is the number of client connections (and client goroutines) a
// run may hold open: the two cores of the reference machine.
const maxConns = 2

// daemon is an in-process distlapd (service.New behind its hardened
// net/http server) on a loopback listener, with the one HTTP client every
// request of a run goes through.
type daemon struct {
	srv    *http.Server
	served chan error
	base   string
	tp     *http.Transport
	client *http.Client
	wire   atomic.Int64 // request plus response body bytes
	sent   atomic.Int64 // requests sent
}

func startDaemon(budget int64) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{CacheBytes: budget}).NewHTTPServer(ln.Addr().String())
	tp := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	d := &daemon{
		srv:    srv,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		tp:     tp,
		client: &http.Client{Transport: tp},
	}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits until its Serve goroutine returned.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.tp.CloseIdleConnections()
	return err
}

// send makes one request and reads the whole response. lat runs from the
// start of the request until the last body byte arrived.
func (d *daemon) send(ctx context.Context, method, path string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	r, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	resp, err = io.ReadAll(r.Body)
	lat = time.Since(t0)
	if cerr := r.Body.Close(); err == nil {
		err = cerr
	}
	d.wire.Add(int64(len(body) + len(resp)))
	d.sent.Add(1)
	return r.StatusCode, resp, lat, err
}

// call sends a request that must answer 200.
func (d *daemon) call(ctx context.Context, method, path string, body []byte) (time.Duration, error) {
	status, resp, lat, err := d.send(ctx, method, path, body)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("%s %s: status %d: %s", method, path, status, strings.TrimSpace(string(resp)))
	}
	return lat, nil
}

// statusz reads the daemon's counters from GET /v1/statusz. The daemon does
// not count the call among its served requests, and neither do the client's
// request and wire-byte tallies.
func (d *daemon) statusz(ctx context.Context) (service.StatuszDeterministic, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/statusz", nil)
	if err != nil {
		return service.StatuszDeterministic{}, err
	}
	r, err := d.client.Do(req)
	if err != nil {
		return service.StatuszDeterministic{}, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return service.StatuszDeterministic{}, fmt.Errorf("GET /v1/statusz: status %d", r.StatusCode)
	}
	var st service.StatuszResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		return service.StatuszDeterministic{}, fmt.Errorf("GET /v1/statusz: %w", err)
	}
	return st.Deterministic, nil
}

// engineCost returns the model cost the daemon charged to served requests.
func (d *daemon) engineCost(ctx context.Context) (rounds, words int64, err error) {
	st, err := d.statusz(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, n := range st.EngineRounds {
		rounds += n
	}
	for _, n := range st.EngineMessages {
		words += n
	}
	return rounds, words, nil
}

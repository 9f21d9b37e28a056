package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is one closed-loop caller with its own single HTTP connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// queryResp is the subset of r2td's query response the checks read.
type queryResp struct {
	Estimate       float64 `json:"estimate"`
	EpsilonCharged float64 `json:"epsilon_charged"`
	Cached         bool    `json:"cached"`
	EpsilonSpent   float64 `json:"epsilon_spent"`
}

// appendResp is the subset of r2td's append response the checks read.
type appendResp struct {
	Appended  int `json:"appended"`
	TotalRows int `json:"total_rows"`
}

// post sends body as JSON and decodes a 200 response into out. A non-200
// code is returned with a nil error; transport and decode failures are errors.
func (c *client) post(path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	return decode(resp, out)
}

func (c *client) get(path string, out any) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	return decode(resp, out)
}

func decode(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, nil
}

// spent reads the dataset's epsilon_spent from /v1/datasets.
func (c *client) spent(dataset string) (float64, error) {
	var infos []struct {
		Name         string  `json:"name"`
		EpsilonSpent float64 `json:"epsilon_spent"`
	}
	code, err := c.get("/v1/datasets", &infos)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("/v1/datasets: code %d: %v", code, err)
	}
	for _, in := range infos {
		if in.Name == dataset {
			return in.EpsilonSpent, nil
		}
	}
	return 0, fmt.Errorf("/v1/datasets does not list %q", dataset)
}

// metrics scrapes /metrics into series name (with labels) → value.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: code %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of the named metric, whatever its labels.
// With match non-empty only series whose labels contain it count.
func sumSeries(m map[string]float64, name, match string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			if match == "" || strings.Contains(k, match) {
				total += v
			}
		}
	}
	return total
}

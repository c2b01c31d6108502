package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"stwig/internal/server"
)

// fingerprint is an order-independent digest of a multiset of matches.
// Two answers with equal fingerprints hold the same assignments with the
// same multiplicities, up to a 64-bit hash collision: a dropped match
// changes n, a corrupted or duplicated one changes both sums.
type fingerprint struct {
	n      int
	s1, s2 uint64
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (f *fingerprint) add(assignment []int64) {
	h := uint64(len(assignment))
	for _, v := range assignment {
		h = mix(h ^ uint64(v))
	}
	f.n++
	f.s1 += h
	f.s2 += mix(h ^ 0x9e3779b97f4a7c15)
}

// response is what the load generator keeps of one /query stream.
type response struct {
	status  int
	matches int
	fp      fingerprint
	// flat holds the streamed assignments back to back when the caller asked
	// to capture them (capped queries, whose match subset varies per run and
	// so must be validated match by match).
	flat   []int64
	bytes  int64
	first  time.Duration // send → first match record; 0 when none arrived
	total  time.Duration // send → end of stream
	stats  *server.StreamStats
	errMsg string
}

var matchPrefix = []byte(`{"type":"match","assignment":[`)

// readStream consumes an NDJSON /query body. Match records in the
// server's canonical shape are parsed by hand — the generator must stay
// cheap beside the server it measures; anything else goes through
// encoding/json.
func readStream(br *bufio.Reader, start time.Time, capture bool, res *response) error {
	ids := make([]int64, 0, 16)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return fmt.Errorf("stream record longer than %d bytes", br.Size())
		}
		res.bytes += int64(len(line))
		if len(bytes.TrimSpace(line)) > 0 {
			if bytes.HasPrefix(line, matchPrefix) {
				var ok bool
				ids, ok = parseInts(line[len(matchPrefix):], ids[:0])
				if !ok {
					return fmt.Errorf("malformed match record %q", line)
				}
				res.match(ids, start, capture)
			} else {
				var rec server.Record
				if jerr := json.Unmarshal(line, &rec); jerr != nil {
					return fmt.Errorf("bad stream record %q: %w", line, jerr)
				}
				switch rec.Type {
				case server.RecordMatch:
					res.match(rec.Assignment, start, capture)
				case server.RecordStats:
					res.stats = rec.Stats
				case server.RecordError:
					res.errMsg = rec.Code + ": " + rec.Error
				default:
					return fmt.Errorf("unknown record type %q", rec.Type)
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (res *response) match(ids []int64, start time.Time, capture bool) {
	if res.matches == 0 {
		res.first = time.Since(start)
	}
	res.matches++
	res.fp.add(ids)
	if capture {
		res.flat = append(res.flat, ids...)
	}
}

// parseInts reads comma-separated non-negative integers up to ']'.
func parseInts(b []byte, out []int64) ([]int64, bool) {
	var v int64
	digits := 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + int64(c-'0')
			digits++
		case c == ',' || c == ']':
			if digits == 0 {
				return out, false
			}
			out = append(out, v)
			v, digits = 0, 0
			if c == ']' {
				return out, true
			}
		default:
			return out, false
		}
	}
	return out, false
}

// client is one closed-loop load client: it sends its next request only
// after the previous response has been read to the end.
type client struct {
	hc *http.Client
	br *bufio.Reader
}

func newClient(hc *http.Client) *client {
	return &client{hc: hc, br: bufio.NewReaderSize(nil, 64<<10)}
}

// query posts one query body and reads the whole stream.
func (c *client) query(url string, body []byte, reqID string, capture bool) (response, error) {
	var res response
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TraceHeader, reqID)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		res.errMsg = strconv.Itoa(resp.StatusCode) + ": " + string(bytes.TrimSpace(raw))
		res.total = time.Since(start)
		return res, nil
	}
	c.br.Reset(resp.Body)
	err = readStream(c.br, start, capture, &res)
	res.total = time.Since(start)
	return res, err
}

// post sends a JSON request and decodes a 200 reply into out; any other
// status is returned as an error carrying the reply body.
func (c *client) post(url string, body []byte, reqID string, out any) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TraceHeader, reqID)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	if resp.StatusCode != http.StatusOK {
		return elapsed, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return elapsed, json.Unmarshal(raw, out)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"nashlb/internal/serve"
)

// The load generator is the benchmark's own: it does not use serve.RunLoad,
// so a change to internal/serve cannot change the instrument. One absolute
// Poisson schedule at the phase's rate is shared by conns connections, each
// a closed loop (one request in flight) that takes the next scheduled
// request when it is free. A request whose connection-to-be is still busy
// is sent late, and every latency is measured from the intended send time,
// so a stall is charged to every request it delays (corrected latency).

// phase is one stretch of offered load.
type phase struct {
	// rate is the offered requests/second over all connections; a rate far
	// above capacity makes every connection send back to back.
	rate     float64
	duration time.Duration
	// seed roots the per-connection schedules and user choices.
	seed uint64
	// traced records a client span per request into the connection's log.
	traced bool
}

// reqSample is one request as the client saw it. Times are offsets from the
// phase start on the monotonic clock.
type reqSample struct {
	intended, sent, done time.Duration
	user                 int32
	// status is the HTTP status, 0 on a transport error.
	status int32
	// backend, service and elapsed are the wire fields of a parsed 200
	// (backend -1 otherwise).
	backend          int32
	service, elapsed float64
}

// ok reports whether the request completed with a well-formed 200.
func (s *reqSample) ok() bool { return s.status == http.StatusOK && s.backend >= 0 }

// phaseResult is everything one phase produced.
type phaseResult struct {
	start   time.Time
	samples []reqSample
	// violations are response-correctness failures found while parsing.
	violations []error
	spans      []span
}

// generator drives one gateway.
type generator struct {
	// urls holds the pre-built /submit URL of every user.
	urls []string
	// classStart[c] is the first user of class c; class c owns users
	// classStart[c] .. classStart[c+1]-1. classCum is the cumulative
	// share of the offered traffic each class sends.
	classStart []int
	classCum   []float64
	conns      int
	// nextID numbers traced requests across phases.
	nextID uint64
}

func newGenerator(gatewayURL string, classStart []int, classWeight []float64, conns int) *generator {
	users := classStart[len(classStart)-1]
	g := &generator{urls: make([]string, users), classStart: classStart, conns: conns}
	for i := range g.urls {
		g.urls[i] = fmt.Sprintf("%s/submit?user=%d", gatewayURL, i)
	}
	var total float64
	for _, w := range classWeight {
		total += w
	}
	var cum float64
	for _, w := range classWeight {
		cum += w / total
		g.classCum = append(g.classCum, cum)
	}
	return g
}

// pickUser draws a class by its traffic share, then a member uniformly.
func (g *generator) pickUser(r *rand.Rand) int {
	u := r.Float64()
	c := 0
	for c < len(g.classCum)-1 && u >= g.classCum[c] {
		c++
	}
	lo, hi := g.classStart[c], g.classStart[c+1]
	return lo + r.IntN(hi-lo)
}

// schedule is a phase's arrival sequence: exponential gaps at the phase's
// rate and a user per arrival, drawn in order from the phase seed, so the
// same seed gives the same sequence whichever connection sends each one.
type schedule struct {
	mu       sync.Mutex
	r        *rand.Rand
	rate     float64
	intended time.Duration
	seq      uint64
}

// take returns the next arrival.
func (s *schedule) take(g *generator) (intended time.Duration, user int, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intended += time.Duration(s.r.ExpFloat64() / s.rate * float64(time.Second))
	s.seq++
	return s.intended, g.pickUser(s.r), s.seq
}

// run plays one phase and returns once every connection has finished.
func (g *generator) run(ph phase) *phaseResult {
	res := &phaseResult{start: time.Now()}
	per := make([]*phaseResult, g.conns)
	sched := &schedule{r: rand.New(rand.NewPCG(ph.seed, 0x5c4ed)), rate: ph.rate}
	idBase := g.nextID
	g.nextID += 1 << 40
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		per[w] = &phaseResult{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.connection(ph, sched, res.start, w, idBase, per[w])
		}(w)
	}
	wg.Wait()
	total := 0
	for _, p := range per {
		total += len(p.samples)
	}
	samples, err := sampleArena(total + 1)
	if err != nil {
		res.violations = append(res.violations, err)
	}
	res.samples = samples
	for _, p := range per {
		res.samples = append(res.samples, p.samples...)
		res.violations = append(res.violations, p.violations...)
		res.spans = append(res.spans, p.spans...)
	}
	return res
}

// maxConnRate bounds the requests/s one connection can complete; it sizes
// the sample arena of an overload phase.
const maxConnRate = 100_000

// connection is one closed-loop client on its own TCP connection.
func (g *generator) connection(ph phase, sched *schedule, start time.Time, w int, idBase uint64, out *phaseResult) {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	// Room for the whole schedule (one connection may carry most of it while
	// the other is busy), capped by what a connection can complete: an
	// overload phase schedules far more than it sends and stops on the
	// wall clock instead.
	room := int(math.Min(ph.rate*1.5, maxConnRate)*ph.duration.Seconds()) + 1024
	samples, err := sampleArena(room)
	if err != nil {
		out.violations = append(out.violations, err)
		return
	}
	out.samples = samples
	if ph.traced {
		out.spans = make([]span, 0, 4096)
	}
	var body bytes.Buffer
	for {
		intended, user, seq := sched.take(g)
		if intended >= ph.duration || time.Since(start) >= ph.duration {
			return
		}
		if len(out.samples) == cap(out.samples) {
			out.violations = append(out.violations, fmt.Errorf("connection %d: sample arena of %d full", w, room))
			return
		}
		waitUntil(start.Add(intended))
		s := reqSample{intended: intended, sent: time.Since(start), user: int32(user), backend: -1}
		resp, err := client.Get(g.urls[user])
		if err == nil {
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil {
				s.status = int32(resp.StatusCode)
			}
		}
		s.done = time.Since(start)
		if s.status == http.StatusOK {
			if verr := parseSubmit(body.Bytes(), &s); verr != nil {
				out.violations = append(out.violations, verr)
			}
		}
		out.samples = append(out.samples, s)
		if ph.traced {
			out.spans = appendRequestSpans(out.spans, idBase|seq, &s)
		}
	}
}

// parseSubmit decodes a 200 body into the sample: it must be exactly one
// serve.SubmitResponse naming the user that was sent.
func parseSubmit(body []byte, s *reqSample) error {
	var resp serve.SubmitResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return fmt.Errorf("user %d: 200 body is not a SubmitResponse: %v", s.user, err)
	}
	if resp.User != int(s.user) {
		return fmt.Errorf("sent user %d, response names user %d", s.user, resp.User)
	}
	if resp.Backend < 0 || math.IsNaN(resp.ServiceSeconds) || math.IsNaN(resp.ElapsedSeconds) ||
		resp.ServiceSeconds < 0 || resp.ElapsedSeconds < 0 {
		return fmt.Errorf("user %d: malformed response fields %+v", s.user, resp)
	}
	s.backend = int32(resp.Backend)
	s.service = resp.ServiceSeconds
	s.elapsed = resp.ElapsedSeconds
	return nil
}

// spinTail is how much of a wait is spun rather than slept. Go's timers on a
// small VM overshoot by up to a millisecond and nanosleep by ~60-150 µs, so
// sleeping alone would charge the generator's own wake-up delay to every
// corrected latency.
const spinTail = 100 * time.Microsecond

// waitUntil blocks until t: a coarse Go sleep for long waits, a nanosleep
// to within spinTail, and a yielding spin for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t) - spinTail; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// latenciesMs returns the corrected latency of every sample in
// milliseconds, ascending, with failed requests as +Inf (a failure misses
// every latency limit).
func latenciesMs(samples []reqSample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = latencyMs(&samples[i])
	}
	return sortedCopy(out)
}

// latencyMs is one sample's corrected latency, +Inf for a failure.
func latencyMs(s *reqSample) float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return float64(s.done-s.intended) / 1e6
}

// scheduledLatenciesMs returns the corrected latency of every sample in
// ms (+Inf for a failure), in order of intended send time.
func scheduledLatenciesMs(samples []reqSample) []float64 {
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return samples[order[a]].intended < samples[order[b]].intended })
	out := make([]float64, len(samples))
	for k, i := range order {
		out[k] = latencyMs(&samples[i])
	}
	return out
}

// latenessMs returns how late each request was sent, ascending, in ms.
func latenessMs(samples []reqSample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = float64(samples[i].sent-samples[i].intended) / 1e6
	}
	return sortedCopy(out)
}

// countOK returns the number of well-formed 200s.
func countOK(samples []reqSample) int64 {
	var n int64
	for i := range samples {
		if samples[i].ok() {
			n++
		}
	}
	return n
}

package main

// stack.go builds the program under test exactly as cmd/adaptd wires
// it — session manager, httpapi.HandlerWithOptions, WithAdmission with
// every limit off, WithObservability with its registry and tracer — and
// the two ways a command reaches it: through that handler in process
// (no TCP), or through the public layer calls with the benchmark's own
// span around each call.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"qoschain/internal/fault"
	"qoschain/internal/httpapi"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/session"
	"qoschain/internal/trace"
)

// newManager is the one place the session manager's mode is chosen.
// Every session workload runs storm-attached: sessions fold into
// equivalence classes on shared region overlays and the storm
// controller owns all re-composition.
func newManager(stateDir string, reg *metrics.Registry) (*session.Manager, error) {
	return session.NewManager(session.ManagerConfig{
		StateDir: stateDir,
		Storm:    true,
		Counters: metrics.CountersOn(reg),
	})
}

// stack is one assembled daemon: its manager, metrics, tracer and the
// outermost handler.
type stack struct {
	m       *session.Manager
	reg     *metrics.Registry
	tracer  *trace.Tracer
	handler http.Handler
	// layerTracer receives the program spans of commands driven through
	// the layer calls; it keeps enough traces to summarize a phase.
	layerTracer *trace.Tracer
}

// layerTraceKeep is how many completed program traces a traced phase
// retains for its span summary.
const layerTraceKeep = 4096

// newStack assembles the handler chain around a fresh manager.
func newStack(stateDir string) (*stack, error) {
	reg := metrics.NewRegistry()
	metrics.RegisterWellKnown(reg)
	m, err := newManager(stateDir, reg)
	if err != nil {
		return nil, err
	}
	tracer := trace.NewTracer(trace.DefaultKeep)
	h := httpapi.HandlerWithOptions(httpapi.Options{
		Sessions: m,
		Metrics:  reg,
		Storm:    m.StormController(),
	})
	h = httpapi.WithAdmission(h, httpapi.AdmissionConfig{Metrics: metrics.CountersOn(reg)})
	h = httpapi.WithObservability(h, httpapi.ObsConfig{Registry: reg, Tracer: tracer})
	return &stack{m: m, reg: reg, tracer: tracer, handler: h, layerTracer: trace.NewTracer(layerTraceKeep)}, nil
}

// cmd is one session command as the program receives it.
type cmd struct {
	op    string // create | get | delete | fault | reevaluate
	body  []byte
	query string
	id    string
}

// executor runs one command and returns the created session's ID (for
// creates) or an error when the program refused or failed it.
type executor interface {
	do(c *cmd) (string, error)
}

// handlerExec sends commands through the full handler stack.
type handlerExec struct{ h http.Handler }

var wantStatus = map[string]int{
	"create": http.StatusCreated, "get": http.StatusOK, "delete": http.StatusOK,
	"fault": http.StatusOK, "reevaluate": http.StatusOK,
}

func (e handlerExec) do(c *cmd) (string, error) {
	var req *http.Request
	switch c.op {
	case "create":
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions?"+c.query, bytes.NewReader(c.body))
	case "get":
		req = httptest.NewRequest(http.MethodGet, "/v1/sessions/"+c.id, nil)
	case "delete":
		req = httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+c.id, nil)
	case "fault":
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+c.id+"/fault", bytes.NewReader(c.body))
	case "reevaluate":
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+c.id+"/reevaluate", nil)
	default:
		return "", fmt.Errorf("unknown op %q", c.op)
	}
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, req)
	if rec.Code != wantStatus[c.op] {
		return "", fmt.Errorf("%s: status %d: %s", c.op, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if c.op != "create" {
		return "", nil
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("create: unreadable response: %v", err)
	}
	return st.ID, nil
}

// span is one benchmark-recorded interval. Spans of one command share
// cmdID, which is the ID of the program trace the command ran under.
type span struct {
	cmdID  string
	name   string
	parent string
	start  time.Time
	end    time.Time
}

// recorder keeps one client's spans in memory; off records nothing.
type recorder struct {
	on    bool
	spans []span
}

func (r *recorder) add(cmdID, name, parent string, start, end time.Time) {
	if r.on {
		r.spans = append(r.spans, span{cmdID: cmdID, name: name, parent: parent, start: start, end: end})
	}
}

// layerExec drives a command through the same public layer calls the
// handler makes — profile.DecodeSet, Manager.CreateCtx/Get/Delete,
// Managed.ApplyFaultCtx/ReevaluateReasonCtx and a JSON encode of
// State() — under a program trace. With its recorder on it times each
// call as a span; with it off it still makes the same calls, so the
// difference between the two is the benchmark's tracing overhead.
type layerExec struct {
	m      *session.Manager
	tracer *trace.Tracer
	rec    *recorder
	buf    bytes.Buffer
}

// faultReq mirrors the fault body the handler decodes.
type faultReq struct {
	Kind     string  `json:"kind"`
	Host     string  `json:"host,omitempty"`
	From     string  `json:"from,omitempty"`
	To       string  `json:"to,omitempty"`
	Service  string  `json:"service,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	LossRate float64 `json:"lossRate,omitempty"`
	DelayMs  float64 `json:"delayMs,omitempty"`
}

func (e *layerExec) encode(v any) {
	e.buf.Reset()
	enc := json.NewEncoder(&e.buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // writes to a bytes.Buffer
}

func (e *layerExec) do(c *cmd) (string, error) {
	tr := e.tracer.Start("bench." + c.op)
	ctx := trace.NewContext(context.Background(), tr)
	id := tr.ID()
	root := "cmd." + c.op
	t0 := time.Now()
	mark := t0
	step := func(name string) {
		now := time.Now()
		e.rec.add(id, name, root, mark, now)
		mark = now
	}
	created, err := e.run(ctx, c, step)
	end := time.Now()
	tr.Finish()
	e.rec.add(id, root, "", t0, end)
	return created, err
}

// run makes the layer calls of one command; step closes the span of
// the layer call that just returned, which also carries the glue (query
// parsing, validation) since the previous step.
func (e *layerExec) run(ctx context.Context, c *cmd, step func(string)) (string, error) {
	lookup := func() (*session.Managed, error) {
		ms, ok := e.m.Get(c.id)
		step("session.get")
		if !ok {
			return nil, fmt.Errorf("%s: unknown session %q", c.op, c.id)
		}
		return ms, nil
	}
	switch c.op {
	case "create":
		set, err := profile.DecodeSet(bytes.NewReader(c.body))
		step("profile.decode")
		if err != nil {
			return "", err
		}
		q, err := url.ParseQuery(c.query)
		if err != nil {
			return "", err
		}
		floor := 0.0
		if v := q.Get("floor"); v != "" {
			if floor, err = strconv.ParseFloat(v, 64); err != nil {
				return "", err
			}
		}
		ms, err := e.m.CreateCtx(ctx, session.CreateSpec{Set: *set, Floor: floor, Seed: 1})
		step("session.create")
		if err != nil {
			return "", err
		}
		e.encode(ms.State())
		step("httpapi.encode")
		return ms.ID(), nil
	case "get":
		ms, err := lookup()
		if err != nil {
			return "", err
		}
		e.encode(ms.State())
		step("httpapi.encode")
	case "delete":
		ok, err := e.m.Delete(c.id)
		step("session.delete")
		if !ok || err != nil {
			return "", fmt.Errorf("delete %s: existed=%v err=%v", c.id, ok, err)
		}
		e.encode(map[string]string{"deleted": c.id})
		step("httpapi.encode")
	case "fault":
		ms, err := lookup()
		if err != nil {
			return "", err
		}
		var req faultReq
		dec := json.NewDecoder(bytes.NewReader(c.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
		step("httpapi.decode")
		if err != nil {
			return "", err
		}
		f := fault.Fault{
			AtStep: 1, Kind: fault.Kind(req.Kind), Host: req.Host, From: req.From, To: req.To,
			Service: service.ID(req.Service), Factor: req.Factor, LossRate: req.LossRate, DelayMs: req.DelayMs,
		}
		if err := f.Validate(); err != nil {
			return "", err
		}
		err = ms.ApplyFaultCtx(ctx, f)
		step("session.fault")
		if err != nil {
			return "", err
		}
		e.encode(ms.State())
		step("httpapi.encode")
	case "reevaluate":
		ms, err := lookup()
		if err != nil {
			return "", err
		}
		_, _, logErr := ms.ReevaluateReasonCtx(ctx, session.ReevalManual)
		step("session.reevaluate")
		if logErr != nil {
			return "", logErr
		}
		e.encode(ms.State())
		step("httpapi.encode")
	default:
		return "", fmt.Errorf("unknown op %q", c.op)
	}
	return "", nil
}

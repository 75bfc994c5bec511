package main

// gen.go derives every input the program sees from the --seed argument:
// the pools of Figure 6–style profile sets, the per-client session
// command streams and the data-plane scenarios. The program receives
// only the generated bodies; nothing here reads the clock or the
// program's state, so one seed always yields the same bytes.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/workload"
)

// deviceHost is the receiver's host on every generated network. It is
// fixed so that device variants stay inside one region: the region is
// the fingerprint of the network and intermediaries only.
const deviceHost = "dev"

// poolEntry is one generated create: a profile-set body and the floor
// query parameter that goes with it.
type poolEntry struct {
	Region int     `json:"region"`
	Class  int     `json:"class"`
	Floor  float64 `json:"floor"`
	Body   []byte  `json:"body"`
}

// query renders the create's query string.
func (e *poolEntry) query() string { return fmt.Sprintf("floor=%g", e.Floor) }

// regionShape fixes the topology of a generated region.
type regionShape int

const (
	// twoProxies is the Figure 6 shape: sender → p1|p2 → device, with
	// converters on both proxies.
	twoProxies regionShape = iota
	// oneProxy routes every chain sender → p1 → device, so the
	// sender→p1 backbone link is crossed by every class's chain.
	oneProxy
)

// regionParams are the seeded per-region network values.
type regionParams struct {
	kbps    float64
	delayMs [4]float64
}

func drawRegion(rng *rand.Rand, kbps float64) regionParams {
	p := regionParams{kbps: kbps}
	for i := range p.delayMs {
		p.delayMs[i] = float64(10 + rng.Intn(40))
	}
	return p
}

// classParams are the seeded per-class user and device values.
type classParams struct {
	idealFPS float64
	budget   float64
	mpeg4    bool // the device also decodes MPEG-4
	pda      bool // PDA hardware instead of a phone's
	floor    float64
}

func drawClass(rng *rand.Rand) classParams {
	return classParams{
		idealFPS: []float64{10, 15, 20, 25, 30}[rng.Intn(5)],
		budget:   float64(50 + 10*rng.Intn(6)),
		mpeg4:    rng.Intn(2) == 1,
		pda:      rng.Intn(2) == 1,
		floor:    []float64{0, 0.3}[rng.Intn(2)],
	}
}

// buildSet renders one profile set. Link capacities are large enough
// that a whole class population holds its reservations on the shared
// region overlay: losses and faults, not capacity starvation, drive
// re-composition.
func buildSet(shape regionShape, region int, rp regionParams, class int, cp classParams) profile.Set {
	dev := profile.Device{
		ID:    deviceHost,
		Class: profile.ClassPhone,
		Hardware: profile.Hardware{
			CPUMips: 200, MemoryMB: 32,
			ScreenWidth: 176, ScreenHeight: 144, ColorDepth: 12, Speakers: 1,
		},
		Software: profile.Software{OS: "symbian", Decoders: []media.Format{media.VideoH263}},
	}
	if cp.pda {
		dev.Class = profile.ClassPDA
		dev.Hardware = profile.Hardware{
			CPUMips: 400, MemoryMB: 64,
			ScreenWidth: 320, ScreenHeight: 240, ColorDepth: 16, Speakers: 2,
		}
	}
	if cp.mpeg4 {
		dev.Software.Decoders = append(dev.Software.Decoders, media.VideoMPEG4)
	}
	links := []profile.Link{
		{From: "sender", To: "p1", BandwidthKbps: rp.kbps, DelayMs: rp.delayMs[0]},
		{From: "p1", To: deviceHost, BandwidthKbps: rp.kbps, DelayMs: rp.delayMs[1]},
	}
	inter := []profile.Intermediary{{
		Host: "p1", CPUMips: 2000, MemoryMB: 256,
		Services: []*service.Service{
			service.FormatConverter("conv1", media.VideoMPEG1, media.VideoH263),
			service.FormatConverter("conv1m4", media.VideoMPEG1, media.VideoMPEG4),
		},
	}}
	if shape == twoProxies {
		links = append(links,
			profile.Link{From: "sender", To: "p2", BandwidthKbps: rp.kbps, DelayMs: rp.delayMs[2]},
			profile.Link{From: "p2", To: deviceHost, BandwidthKbps: rp.kbps, DelayMs: rp.delayMs[3]},
		)
		inter = append(inter, profile.Intermediary{
			Host: "p2", CPUMips: 1500, MemoryMB: 256,
			Services: []*service.Service{
				service.FormatConverter("conv2", media.VideoMPEG1, media.VideoH263),
			},
		})
	}
	return profile.Set{
		User: profile.User{
			Name: fmt.Sprintf("user-r%d-c%d", region, class),
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, cp.idealFPS),
			},
			Budget: cp.budget,
		},
		Content: profile.Content{
			ID:    "clip-1",
			Title: "generated clip",
			Variants: []media.Descriptor{
				{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}},
			},
		},
		Device:         dev,
		Network:        profile.Network{Links: links},
		Intermediaries: inter,
	}
}

// genPool builds regions × classes create bodies. Every class of a
// region shares the region's network and intermediaries byte for byte,
// so its creates fold into the same region overlay.
func genPool(seed int64, shape regionShape, regions, classes int, kbps float64) ([]poolEntry, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []poolEntry
	for r := 0; r < regions; r++ {
		rp := drawRegion(rng, kbps)
		for c := 0; c < classes; c++ {
			cp := drawClass(rng)
			set := buildSet(shape, r, rp, c, cp)
			body, err := json.Marshal(&set)
			if err != nil {
				return nil, fmt.Errorf("encoding generated set: %w", err)
			}
			out = append(out, poolEntry{Region: r, Class: c, Floor: cp.floor, Body: body})
		}
	}
	return out, nil
}

// faultBody renders a loss fault on one link; rate 0 is the inverse.
func faultBody(from, to string, rate float64) []byte {
	return []byte(fmt.Sprintf(`{"kind":"loss","from":%q,"to":%q,"lossRate":%g}`, from, to, rate))
}

// memCmd is one create-mem command. Pick resolves a target among the
// client's live sessions at run time (Pick mod live count), so the
// stream itself never depends on the IDs the program mints.
type memCmd struct {
	Op   string `json:"op"` // create | get | delete
	Pool int    `json:"pool,omitempty"`
	Pick uint32 `json:"pick,omitempty"`
}

// memStream is one closed-loop client's command stream. It tracks the
// client's live count itself so it can hold the population near target:
// below target it creates, above it deletes, at target it flips a coin.
// Creates draw pool entries Zipf-skewed over a seeded ranking shared by
// every client, so most creates join a hot class and the long tail
// keeps opening new ones.
type memStream struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	rank   []int
	target int
	live   int
}

func newMemStream(seed int64, client, pool, target int) *memStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	return &memStream{
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(pool-1)),
		rank:   rand.New(rand.NewSource(seed)).Perm(pool),
		target: target,
	}
}

func (s *memStream) next() memCmd {
	u := s.rng.Float64()
	pick := s.rng.Uint32()
	entry := s.rank[s.zipf.Uint64()]
	switch {
	case u < 0.2 && s.live > 0:
		return memCmd{Op: "get", Pick: pick}
	case s.live < s.target || (s.live == s.target && u < 0.6):
		s.live++
		return memCmd{Op: "create", Pool: entry}
	default:
		s.live--
		return memCmd{Op: "delete", Pick: pick}
	}
}

// laneCmd is one durable-churn command of one lane (an independent
// user): the lane's session is created, optionally faulted, re-evaluated
// and un-faulted, then deleted, and the cycle repeats. DueS is the
// offset from the start of the lane's schedule at which it is sent.
type laneCmd struct {
	Op    string  `json:"op"` // create | fault | reevaluate | delete
	DueS  float64 `json:"due"`
	Pool  int     `json:"pool,omitempty"`
	Fault []byte  `json:"fault,omitempty"`
}

// laneStream generates one lane's open-loop schedule. Inter-arrival
// gaps are the lane's mean gap times a uniform draw in [0.5, 1.5), so
// lanes never synchronize and the offered rate is fixed.
type laneStream struct {
	rng     *rand.Rand
	pool    int
	meanGap float64
	faultP  float64
	t       float64
	pending []laneCmd
}

func newLaneStream(seed int64, lane, pool int, meanGap, faultP float64) *laneStream {
	return &laneStream{
		rng:     rand.New(rand.NewSource(seed*104729 + int64(lane) + 1)),
		pool:    pool,
		meanGap: meanGap,
		faultP:  faultP,
	}
}

// faultLinks are the links a durable-churn fault may hit; every
// two-proxy region has all four.
var faultLinks = [][2]string{{"sender", "p1"}, {"p1", deviceHost}, {"sender", "p2"}, {"p2", deviceHost}}

func (s *laneStream) next() laneCmd {
	if len(s.pending) == 0 {
		cycle := []laneCmd{{Op: "create", Pool: s.rng.Intn(s.pool)}}
		if s.rng.Float64() < s.faultP {
			l := faultLinks[s.rng.Intn(len(faultLinks))]
			rate := 0.01 + 0.01*float64(s.rng.Intn(9))
			cycle = append(cycle,
				laneCmd{Op: "fault", Fault: faultBody(l[0], l[1], rate)},
				laneCmd{Op: "reevaluate"},
				laneCmd{Op: "fault", Fault: faultBody(l[0], l[1], 0)},
			)
		}
		cycle = append(cycle, laneCmd{Op: "delete"})
		for i := range cycle {
			s.t += s.meanGap * (0.5 + s.rng.Float64())
			cycle[i].DueS = s.t
		}
		s.pending = cycle
	}
	c := s.pending[0]
	s.pending = s.pending[1:]
	return c
}

// unread puts a command back at the head of the lane's stream, so the
// next call to next returns it again, due when it was.
func (s *laneStream) unread(c laneCmd) {
	s.pending = append([]laneCmd{c}, s.pending...)
}

// stormStream generates the storm-fanout client's faults: a loss spike
// on the backbone link every class chain crosses, then its inverse,
// alternating, each sent through a seeded pick among the members.
type stormStream struct {
	rng *rand.Rand
	n   int
}

func newStormStream(seed int64) *stormStream {
	return &stormStream{rng: rand.New(rand.NewSource(seed*15485863 + 1))}
}

// next returns the member pick (mod the member count) and fault body.
func (s *stormStream) next() (uint32, []byte) {
	rate := 0.0
	if s.n%2 == 0 {
		rate = 0.02 + 0.01*float64(s.rng.Intn(8))
	}
	s.n++
	return s.rng.Uint32(), faultBody("sender", "p1", rate)
}

// frameScenario is one data-plane chain: a generated service graph, the
// chain core.Select picked on it, and the loss every link carries.
type frameScenario struct {
	Length   int
	LossRate float64
	Graph    *graph.Graph
	Result   *core.Result
}

// genScenarios builds one scenario per chain length × loss rate, each
// from its own seeded graph, and selects its chain with core.Select.
func genScenarios(seed int64) ([]*frameScenario, error) {
	var out []*frameScenario
	i := 0
	for _, length := range []int{3, 5, 8} {
		for _, loss := range []float64{0, 0.02, 0.05} {
			sc := workload.Generate(rand.New(rand.NewSource(seed*31+int64(i))), workload.Spec{
				Services: 2 * length,
				Backbone: length,
				MinKbps:  2000,
				MaxKbps:  4000,
			})
			i++
			for _, id := range sc.Graph.NodeIDs() {
				for _, e := range sc.Graph.Out(id) {
					e.LossRate = loss
				}
			}
			res, err := core.Select(sc.Graph, sc.Config)
			if err != nil || !res.Found {
				return nil, fmt.Errorf("scenario len=%d loss=%g: no chain (%v)", length, loss, err)
			}
			out = append(out, &frameScenario{Length: length, LossRate: loss, Graph: sc.Graph, Result: res})
		}
	}
	return out, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/profile"
)

// streamBytes renders everything the generator produces for one seed —
// every workload's pool, the first commands of every client stream and
// the data-plane scenario set — as one byte string.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encoding: %v", err)
		}
	}
	for _, shape := range []struct {
		shape            regionShape
		regions, classes int
		kbps             float64
	}{
		{twoProxies, memRegions, memClasses, memKbps},
		{twoProxies, durRegions, durClasses, durKbps},
		{oneProxy, 1, stormClasses, stormKbps},
	} {
		pool, err := genPool(seed, shape.shape, shape.regions, shape.classes, shape.kbps)
		if err != nil {
			t.Fatalf("genPool: %v", err)
		}
		put(pool)
	}
	for client := 0; client < 2; client++ {
		s := newMemStream(seed, client, memRegions*memClasses, memTarget)
		for i := 0; i < 2000; i++ {
			put(s.next())
		}
	}
	for lane := 0; lane < durLanes; lane++ {
		s := newLaneStream(seed, lane, durRegions*durClasses, float64(durLanes)/durRate, durFaultP)
		for i := 0; i < 500; i++ {
			put(s.next())
		}
	}
	storm := newStormStream(seed)
	for i := 0; i < 500; i++ {
		pick, body := storm.next()
		put([]any{pick, string(body)})
	}
	scs, err := genScenarios(seed)
	if err != nil {
		t.Fatalf("genScenarios: %v", err)
	}
	for _, sc := range scs {
		put(sc.describe())
	}
	return buf.Bytes()
}

// describe renders a scenario's identity.
func (s *frameScenario) describe() string {
	return fmt.Sprintf("len=%d loss=%g path=%s sat=%.9f graph=%s",
		s.Length, s.LossRate, core.PathString(s.Result.Path), s.Result.Satisfaction, s.Graph.String())
}

func TestSeedDeterminism(t *testing.T) {
	a, b := streamBytes(t, 7), streamBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different command streams or scenarios")
	}
	if c := streamBytes(t, 8); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical inputs")
	}
}

// TestGeneratedInputsAreValid checks that every generated create body
// decodes, that each region's classes share one network, so creates of
// a region fold into one overlay, and that regions differ.
func TestGeneratedInputsAreValid(t *testing.T) {
	pool, err := genPool(3, twoProxies, memRegions, 8, memKbps)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[int]string{}
	for _, e := range pool {
		if _, err := profile.DecodeSet(bytes.NewReader(e.Body)); err != nil {
			t.Fatalf("entry r%d c%d: %v", e.Region, e.Class, err)
		}
		var set struct {
			Network        json.RawMessage `json:"network"`
			Intermediaries json.RawMessage `json:"intermediaries"`
		}
		if err := json.Unmarshal(e.Body, &set); err != nil {
			t.Fatalf("entry r%d c%d: %v", e.Region, e.Class, err)
		}
		key := fmt.Sprintf("%s|%s", set.Network, set.Intermediaries)
		if prev, ok := nets[e.Region]; ok && prev != key {
			t.Fatalf("region %d: classes disagree on the network", e.Region)
		}
		nets[e.Region] = key
	}
	distinct := map[string]bool{}
	for _, key := range nets {
		distinct[key] = true
	}
	if len(distinct) != memRegions {
		t.Fatalf("%d distinct region networks, want %d", len(distinct), memRegions)
	}
}

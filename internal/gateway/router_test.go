package gateway

import (
	"testing"

	"ribbon/internal/dispatch"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// TestGatewayNoShedWhileIdle: the live criticality policy sheds a Sheddable
// arrival only when no instance is idle, exactly as the simulator does —
// queue pressure alone does not drop work an idle instance could serve.
func TestGatewayNoShedWhileIdle(t *testing.T) {
	g := newStaticGateway(t, Options{
		Initial:  serving.Config{1, 0, 0},
		Dispatch: dispatch.Spec{Kind: dispatch.KindCriticality, ShedQueueLength: 2},
	})
	inst := g.pool.Load().instances[0]
	// Pool backlog at the threshold while the only instance is idle.
	g.totalQueued.Add(2)
	defer g.totalQueued.Add(-2)
	sheddable := func() *request {
		r := g.getRequest()
		r.batch, r.rank, r.wait = 1, workload.ClassSheddable.Rank(), true
		return r
	}

	r := sheddable()
	if out := g.route(r); out != OutcomeQueued {
		t.Fatalf("sheddable arrival with an idle instance: %v, want queued", out)
	}
	if resp := <-r.done; resp.Err != nil || resp.Instance != inst.name {
		t.Fatalf("served by %q (err %v), want the idle %q", resp.Instance, resp.Err, inst.name)
	}
	g.putRequest(r)

	// With the instance busy, the same arrival is shed.
	inst.inflight.Add(1)
	defer inst.inflight.Add(-1)
	r = sheddable()
	defer g.putRequest(r)
	if out := g.route(r); out != OutcomeShed {
		t.Fatalf("sheddable arrival on a busy pool under pressure: %v, want shed", out)
	}
}

// TestGatewayPickPerKind drives the live router's pick over controlled
// instance loads for every built-in kind: an idle instance is chosen by the
// kind's placement rule, and a fully busy pool joins the least-loaded queue,
// ties to preference order.
func TestGatewayPickPerKind(t *testing.T) {
	for _, kind := range dispatch.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			// Preference order c5a, c5a, m5, m5, t3, t3.
			g := newStaticGateway(t, Options{
				Initial:  serving.Config{2, 2, 2},
				Dispatch: dispatch.Spec{Kind: kind},
			})
			p := g.pool.Load()
			withLoads := func(loads []int64, check func()) {
				for i, l := range loads {
					p.instances[i].inflight.Add(l)
				}
				defer func() {
					for i, l := range loads {
						p.instances[i].inflight.Add(-l)
					}
				}()
				check()
			}
			index := func(inst *instance) int {
				for i, c := range p.instances {
					if c == inst {
						return i
					}
				}
				t.Fatalf("picked an instance outside the snapshot")
				return -1
			}

			// Every instance busy: the least-loaded queue, ties to the
			// earlier instance, for every kind.
			withLoads([]int64{2, 1, 3, 1, 2, 2}, func() {
				if inst, idle := g.pick(p); idle || index(inst) != 1 {
					t.Fatalf("busy pool: picked %d (idle %v), want queue 1", index(inst), idle)
				}
			})

			if kind != dispatch.KindCostRandom {
				// The first idle instance in preference order.
				withLoads([]int64{1, 0, 2, 0, 1, 1}, func() {
					if inst, idle := g.pick(p); !idle || index(inst) != 1 {
						t.Fatalf("picked %d (idle %v), want idle 1", index(inst), idle)
					}
				})
				if inst, idle := g.pick(p); !idle || index(inst) != 0 {
					t.Fatalf("idle pool: picked %d (idle %v), want 0", index(inst), idle)
				}
				return
			}

			// Cost-random: only idle instances, drawn by inverse price.
			withLoads([]int64{1, 0, 2, 0, 1, 1}, func() {
				for k := 0; k < 200; k++ {
					if inst, idle := g.pick(p); !idle || (index(inst) != 1 && index(inst) != 3) {
						t.Fatalf("picked %d (idle %v), want idle 1 or 3", index(inst), idle)
					}
				}
			})
			const picks = 6000
			var perType [3]int
			for k := 0; k < picks; k++ {
				inst, idle := g.pick(p)
				if !idle {
					t.Fatal("idle pool: cost-random picked a busy instance")
				}
				perType[inst.slot]++
			}
			var total float64
			for _, typ := range g.spec.Types {
				total += dispatch.Weight(typ.PricePerHour)
			}
			for slot, typ := range g.spec.Types {
				want := dispatch.Weight(typ.PricePerHour) / total
				if got := float64(perType[slot]) / picks; got < want-0.04 || got > want+0.04 {
					t.Errorf("%s drew %.3f of picks, want %.3f ± 0.04", typ.Name(), got, want)
				}
			}
		})
	}
}

//go:build go1.23

package sim

// The constraint lifts this file to go1.23 for iter.Pull; go.mod stays at 1.22, which bench/go.mod pins.
import "iter"

// newCoroutine makes p a runtime coroutine: each p.next runs it until
// it parks or its assignment ends. A finished proc idles at the loop's
// yield, in its shard's free pool, until a later Spawn resumes it;
// p.stop unwinds it from either place.
func (s *Sim) newCoroutine(p *Proc) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for s.runAssignment(p) && yield(struct{}{}) {
		}
	})
}

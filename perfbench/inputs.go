package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"mw/internal/atom"
	"mw/internal/core"
	"mw/internal/mml"
	"mw/internal/vec"
)

// The benchmark builds every input itself from --seed; the program under
// test only ever sees the generated systems, model bodies and requests.

// subSeed derives an independent stream seed from the run seed and a path
// of stream labels (splitmix64 finalizer), so adding a stream never shifts
// another stream's values.
func subSeed(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// Stream labels for subSeed.
const (
	streamAl1000 = iota + 1
	streamSalt
	streamTenant
	streamSchedule
)

// al1000Config is the engine parameter set the Al-1000 model runs with.
var al1000Config = core.Config{Dt: 1, LJCutoff: 7, Skin: 0.6}

// buildAl1000 is the Al-1000 block — 999 aluminum atoms on a 2.86 Å
// lattice, at rest — struck by one gold atom moving at 0.05 Å/fs. The seed
// sets a small Gaussian jitter of the lattice sites (σ = 0.02 Å) and the
// projectile's aim: its start point is offset in x and y by up to half a
// lattice spacing, and it flies straight down at the block.
func buildAl1000(seed int64, episode int) *atom.System {
	rng := rand.New(rand.NewSource(subSeed(seed, streamAl1000, int64(episode))))
	const spacing, n, margin, jitter = 2.86, 10, 12.0, 0.02
	l := float64(n-1)*spacing + 2*margin
	s := atom.NewSystem(atom.CubicBox(l, false))
	count := 0
	for x := 0; x < n && count < 999; x++ {
		for y := 0; y < n && count < 999; y++ {
			for z := 0; z < n && count < 999; z++ {
				p := vec.New(
					margin+float64(x)*spacing+jitter*rng.NormFloat64(),
					margin+float64(y)*spacing+jitter*rng.NormFloat64(),
					margin+float64(z)*spacing+jitter*rng.NormFloat64(),
				)
				s.AddAtom(atom.Al, p, vec.Zero, 0, false)
				count++
			}
		}
	}
	dx := (rng.Float64() - 0.5) * spacing
	dy := (rng.Float64() - 0.5) * spacing
	s.AddAtom(atom.Au, vec.New(l/2+dx, l/2+dy, l-2), vec.New(0, 0, -0.05), 0, false)
	return s
}

// saltConfig is the engine parameter set the salt model runs with.
var saltConfig = core.Config{Dt: 2, LJCutoff: 8, Skin: 0.8}

// buildSalt is a 10×10×8 rock-salt lattice of 400 Na⁺ and 400 Cl⁻ ions in a
// closed box, thermalized to 300 K from the seed.
func buildSalt(seed int64, episode int) *atom.System {
	const spacing, nx, ny, nz, margin = 2.82, 10, 10, 8, 8.0
	s := atom.NewSystem(atom.NewBox(
		nx*spacing+2*margin, ny*spacing+2*margin, nz*spacing+2*margin, false))
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				p := vec.New(margin+float64(x)*spacing, margin+float64(y)*spacing, margin+float64(z)*spacing)
				if (x+y+z)%2 == 0 {
					s.AddAtom(atom.Na, p, vec.Zero, +1, false)
				} else {
					s.AddAtom(atom.Cl, p, vec.Zero, -1, false)
				}
			}
		}
	}
	s.Thermalize(300, rand.New(rand.NewSource(subSeed(seed, streamSalt, int64(episode)))))
	return s
}

// tenantConfig is the engine parameter set uploaded with every tenant.
var tenantConfig = core.Config{Dt: 2, LJCutoff: 8, Skin: 0.8}

// buildTenant is one serve-mix tenant: 125 argon atoms on a 4.3 Å lattice
// in a periodic box (the daemon's lj-gas shape), with seeded 0.05 Å site
// jitter and seeded velocities at 120 K.
func buildTenant(seed int64, k int) *atom.System {
	rng := rand.New(rand.NewSource(subSeed(seed, streamTenant, int64(k))))
	const spacing, n, jitter = 4.3, 5, 0.05
	s := atom.NewSystem(atom.CubicBox(n*spacing, true))
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				p := vec.New(
					(float64(x)+0.5)*spacing+jitter*rng.NormFloat64(),
					(float64(y)+0.5)*spacing+jitter*rng.NormFloat64(),
					(float64(z)+0.5)*spacing+jitter*rng.NormFloat64(),
				)
				s.AddAtom(atom.Ar, p, vec.Zero, 0, false)
			}
		}
	}
	s.Thermalize(120, rng)
	return s
}

// tenantBody is tenant k's upload: its system as an MML document.
func tenantBody(seed int64, k int) ([]byte, error) {
	var buf bytes.Buffer
	if err := mml.Save(&buf, mml.FromSystem(fmt.Sprintf("tenant-%d", k), buildTenant(seed, k), tenantConfig)); err != nil {
		return nil, fmt.Errorf("encoding tenant %d: %w", k, err)
	}
	return buf.Bytes(), nil
}

// arrival is one scheduled request of the open-loop generator.
type arrival struct {
	At       float64 // intended send time, seconds from the phase start
	Tenant   int
	Snapshot bool // GET snapshot instead of POST step?n=1
}

// poissonSchedule draws an open-loop arrival schedule: exponential gaps at
// rate per second over dur seconds, each request aimed at a uniformly
// chosen tenant, a snapShare of them being snapshot reads. phase labels the
// stream so the light, heavy and ladder schedules are independent.
func poissonSchedule(seed int64, phase int64, rate, dur float64, tenants int, snapShare float64) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, streamSchedule, phase)))
	out := make([]arrival, 0, int(rate*dur*1.1)+16)
	for t := rng.ExpFloat64() / rate; t < dur; t += rng.ExpFloat64() / rate {
		out = append(out, arrival{At: t, Tenant: rng.Intn(tenants), Snapshot: rng.Float64() < snapShare})
	}
	return out
}

// finiteState reports whether every position, velocity and force of s is
// finite.
func finiteState(s *atom.System) bool {
	for i := range s.Pos {
		for _, v := range [...]vec.Vec3{s.Pos[i], s.Vel[i], s.Force[i]} {
			if math.IsNaN(v.X+v.Y+v.Z) || math.IsInf(v.X+v.Y+v.Z, 0) {
				return false
			}
		}
	}
	return true
}

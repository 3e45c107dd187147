package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Hotels-family specifications: the paper's §2 booking scenario scaled to
// a seeded number of hotels. internal/benchgen builds the Hotels world as
// Go values only; this renders the family as surface source, with the
// profile mix, the client plans and an α-renaming tag all drawn from a
// seed, and derives every known answer from the construction alone.

// profile is a hotel's behaviour, which fixes the verdict of any plan
// that selects it under the booking policy phi(bl, 45, 100).
type profile int

const (
	profValid       profile = iota // price 90 > 45, rating 100 ≥ 100: respects phi
	profBlacklisted                // signs with a blacklisted name: violates phi
	profThreshold                  // price 50 > 45 but rating 90 < 100: violates phi
	profDel                        // may answer Del!, which the broker cannot take
)

var profileVerdict = [...]string{
	profValid:       "valid",
	profBlacklisted: "security-violation",
	profThreshold:   "security-violation",
	profDel:         "not-compliant",
}

// relayTarget marks a client whose plan routes the broker's hotel request
// to the relay, which calls the broker back: a cyclic composition whose
// verdict is unbounded nesting.
const relayTarget = -1

const verdictNesting = "unbounded-nesting"

// hotelsSpec is one member of the family.
type hotelsSpec struct {
	tag     string // α-renaming suffix of every declared name ("" = base)
	hotels  []profile
	price   []int
	clients []int // per client: the hotel its plan selects, or relayTarget
}

const phiSource = `policy phi(bl set, p int, t int) {
  states q1 q2 q3 q4 q5 q6;
  start q1;
  final q6;
  edge q1 -> q2 on sgn(x) when x notin bl;
  edge q1 -> q6 on sgn(x) when x in bl;
  edge q2 -> q3 on price(y) when y <= p;
  edge q2 -> q4 on price(y) when y > p;
  edge q4 -> q5 on rating(z) when z >= t;
  edge q4 -> q6 on rating(z) when z < t;
}
`

// genHotels builds the i-th spec of a pool. Its shape cycles with i —
// 4 to 7 hotels, every profile at least once; 1 to 3 clients whose plans
// cycle through the verdict classes — so that pools of different seeds
// cost about the same; the seed shuffles the hotels and picks which
// hotel of its class each client selects.
func genHotels(rng *rand.Rand, i int) *hotelsSpec {
	hs := []profile{profValid, profBlacklisted, profThreshold, profDel}
	extra := []profile{profValid, profThreshold, profBlacklisted}
	for k := 0; k < i%4; k++ {
		hs = append(hs, extra[k%len(extra)])
	}
	rng.Shuffle(len(hs), func(a, b int) { hs[a], hs[b] = hs[b], hs[a] })
	s := &hotelsSpec{hotels: hs}
	for _, p := range hs {
		s.price = append(s.price, map[profile]int{profValid: 90, profBlacklisted: 40, profThreshold: 50, profDel: 40}[p])
	}
	classes := []profile{profValid, profBlacklisted, profThreshold, profDel, -1}
	for j := 0; j < 1+i%3; j++ {
		c := classes[(i+j)%len(classes)]
		if c < 0 {
			s.clients = append(s.clients, relayTarget)
			continue
		}
		var of []int
		for h, p := range hs {
			if p == c {
				of = append(of, h)
			}
		}
		s.clients = append(s.clients, of[rng.Intn(len(of))])
	}
	return s
}

func (s *hotelsSpec) clone() *hotelsSpec {
	c := *s
	c.hotels = append([]profile(nil), s.hotels...)
	c.price = append([]int(nil), s.price...)
	c.clients = append([]int(nil), s.clients...)
	return &c
}

// renamed is the spec with every declared name α-renamed: the hotels'
// signing events change with their names, so every dependency cone is new.
func (s *hotelsSpec) renamed(tag string) *hotelsSpec {
	c := s.clone()
	c.tag = tag
	return c
}

// edited is the spec with one hotel's price changed to 100+n. Every
// profile keeps its verdict (valid and threshold hotels stay above p=45;
// blacklisted and Del hotels do not depend on the price), so the known
// answers are unchanged while that one service's cone is new.
func (s *hotelsSpec) edited(hotel, n int) *hotelsSpec {
	c := s.clone()
	c.price[hotel] = 100 + n
	return c
}

func (s *hotelsSpec) hotel(i int) string  { return fmt.Sprintf("h%d%s", i, s.tag) }
func (s *hotelsSpec) broker() string      { return "br" + s.tag }
func (s *hotelsSpec) relay() string       { return "rl" + s.tag }
func (s *hotelsSpec) client(j int) string { return fmt.Sprintf("c%d%s", j, s.tag) }

// source renders the spec in surface syntax.
func (s *hotelsSpec) source() string {
	var b strings.Builder
	b.WriteString(phiSource)
	var bl []string
	for i, p := range s.hotels {
		if p == profBlacklisted {
			bl = append(bl, s.hotel(i))
		}
	}
	fmt.Fprintf(&b, "instance pol = phi(bl = {%s}, p = 45, t = 100);\n", strings.Join(bl, ", "))
	fmt.Fprintf(&b, "service %s = Req? . open r3 { IdC! . (Bok? + UnA?) } . (CoBo! . Pay? (+) NoAv!);\n", s.broker())
	for i, p := range s.hotels {
		rating, del := 100, ""
		switch p {
		case profBlacklisted, profDel:
			rating = 80
		case profThreshold:
			rating = 90
		}
		if p == profDel {
			del = " (+) Del!"
		}
		fmt.Fprintf(&b, "service %s = sgn(%s) . price(%d) . rating(%d) . IdC? . (Bok! (+) UnA!%s);\n",
			s.hotel(i), s.hotel(i), s.price[i], rating, del)
	}
	fmt.Fprintf(&b, "service %s = IdC? . open r4 { Req! . (CoBo? . Pay! + NoAv?) } . (Bok! (+) UnA!);\n", s.relay())
	for j, t := range s.clients {
		target := ""
		if t == relayTarget {
			target = fmt.Sprintf("%s, r4 -> %s", s.relay(), s.broker())
		} else {
			target = s.hotel(t)
		}
		fmt.Fprintf(&b, "client %s at %s plan { q%d -> %s, r3 -> %s } = open q%d with pol { Req! . (CoBo? . Pay! + NoAv?) };\n",
			s.client(j), s.client(j), j, s.broker(), target, j)
	}
	return b.String()
}

// checkVerdict is the known verdict of client j's declared plan.
func (s *hotelsSpec) checkVerdict(j int) string {
	if s.clients[j] == relayTarget {
		return verdictNesting
	}
	return profileVerdict[s.hotels[s.clients[j]]]
}

// planVerdicts is the known answer of `plans` for any client: one plan
// per hotel compliant with the broker's request (Del hotels are pruned),
// keyed by the location bound to r3, plus the cyclic relay plan.
func (s *hotelsSpec) planVerdicts() map[string]string {
	out := map[string]string{s.relay(): verdictNesting}
	for i, p := range s.hotels {
		if p != profDel {
			out[s.hotel(i)] = profileVerdict[p]
		}
	}
	return out
}

// count returns how many hotels have profile p.
func (s *hotelsSpec) count(p profile) int {
	n := 0
	for _, q := range s.hotels {
		if q == p {
			n++
		}
	}
	return n
}

// networkVerdicts is the known answer of checkall: "valid" when every
// client's plan is valid, else the set of verdicts of the failing
// clients (the engine reports one of them).
func (s *hotelsSpec) networkVerdicts() []string {
	set := map[string]bool{}
	for j := range s.clients {
		if v := s.checkVerdict(j); v != "valid" {
			set[v] = true
		}
	}
	if len(set) == 0 {
		return []string{"valid"}
	}
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// caps is the bounded-availability spec of checkall requests: one replica
// of the broker and of every hotel per client, so no client waits on
// another and the verdicts are those of the clients alone.
func (s *hotelsSpec) caps() string {
	n := len(s.clients)
	parts := []string{fmt.Sprintf("%s=%d", s.broker(), n)}
	for i := range s.hotels {
		parts = append(parts, fmt.Sprintf("%s=%d", s.hotel(i), n))
	}
	return strings.Join(parts, ",")
}

// validClient returns a client whose plan is valid, retargeting client 0
// to a valid hotel when there is none.
func (s *hotelsSpec) validClient() (*hotelsSpec, int) {
	for j := range s.clients {
		if s.checkVerdict(j) == "valid" {
			return s, j
		}
	}
	c := s.clone()
	for i, p := range c.hotels {
		if p == profValid {
			c.clients[0] = i
			break
		}
	}
	return c, 0
}

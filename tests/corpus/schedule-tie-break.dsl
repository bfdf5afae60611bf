// fuzz: name = schedule-tie-break
// fuzz: origin = seeded
// fuzz: prob-mode = direct
// fuzz: note = diagonal-only descent: (1,0) and (0,1) tie at equal partition count, so the solver's tie_break_key must resolve identically on every replay and every backend must print the same values under the schedule it picks
// fuzz: expect = 6 4
alphabet al = "ab"

int g(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else g(i - 1, j - 1) + 1

let a = "ababab"
let b = "baba"
print g(a, |a|, b, |b|)
print g(b, |b|, b, |b|)

// fuzz: name = ring-schedule-collision
// fuzz: origin = seeded
// fuzz: prob-mode = direct
// fuzz: note = S = i leaves j a pure-space column: under the partition sweep (scalar, vector, batched native) a partition is a whole row, under the native blocked wavefront a block is a run of rows cut into column strips, and the two-row look-back f(i - 2, j - 1) must read finished rows either way
// fuzz: expect = 16 6
alphabet al = "acgt"

int f(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i < 2 then i + j
  else if j < 2 then i + j
  else (f(i - 1, j) max f(i - 2, j - 1)) + 1

schedule f : i

let a = "acgtacgt"
let b = "tgcatgca"
print f(a, |a|, b, |b|)
print f(a, 4, b, 2)

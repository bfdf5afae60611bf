// fuzz: name = result-only-reach-2
// fuzz: origin = seeded
// fuzz: prob-mode = direct
// fuzz: note = f(i - 2, j - 1) reaches two rows back: a result-only launch carries a two-row top strip and a 2x1 corner between blocks, and each print reads one cell out of the tile that holds it (the 2x3-block replay cuts this 12x10 table into 24 blocks)
// fuzz: expect = 20 12 10 13
alphabet al = "acgt"

int f(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i < 2 then i + j
  else if j < 2 then i + j
  else if s[i-1] == t[j-1] then f(i - 2, j - 1) + 3
  else (f(i - 1, j) max f(i - 2, j - 1)) + 1

schedule f : i

let a = "acgtacgtgca"
let b = "tgcatgcat"
print f(a, |a|, b, |b|)
print f(a, 7, b, 5)
print f(a, 2, b, 8)
print f(a, 10, b, 3)

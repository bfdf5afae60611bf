// fuzz: name = int-max-above-2p53
// fuzz: origin = seeded
// fuzz: prob-mode = direct
// fuzz: note = integer max above 2**53: the native prelude's double max() rounded both operands and promoted the surrounding ?: (native said ...992 where scalar and vector say ...998); lmin/lmax keep int cells in long
// fuzz: expect = 9007199254740998 9007199254740993
alphabet al = "ab"

int f(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i == 0 then 9007199254740993
  else if j == 0 then 9007199254740993
  else (f(i - 1, j) + 1) max f(i, j - 1)

let a = "ababa"
let b = "ab"
print f(a, |a|, b, |b|)
print f(a, 0, b, 1)

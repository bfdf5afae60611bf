/* native kernel: nuss (schedule S = -i + j) */
/* parallel-safety: space=confirmed batch=confirmed ring=not-applicable */
#define ceild(n, d) (((n) < 0) ? -((-(n)) / (d)) : ((n) + (d) - 1) / (d))
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
double log(double);
double exp(double);
double trunc(double);
#define INFINITY (__builtin_inff())

static inline double min(double a, double b) { return a < b ? a : b; }
static inline double max(double a, double b) { return a > b ? a : b; }
static inline double idiv(double a, double b) { return trunc(a / b); }
static inline double safelog(double x) { return x > 0.0 ? log(x) : -INFINITY; }
static inline double logaddexp(double a, double b) {
  if (a == -INFINITY) return b;
  if (b == -INFINITY) return a;
  double hi = a > b ? a : b;
  double lo = a > b ? b : a;
  return hi + log(1.0 + exp(lo - hi));
}

#ifdef _OPENMP
void omp_set_num_threads(int);
int omp_get_max_threads(void);
void repro_set_threads(long n) {
  if (n >= 1) omp_set_num_threads((int) n);
}
long repro_max_threads(void) { return omp_get_max_threads(); }
#else
void repro_set_threads(long n) { (void) n; }
long repro_max_threads(void) { return 1; }
#endif

void repro_nuss(long* farr, long part_lo, long part_hi, long ub_i, long ub_j, const long* seq_x) {
  long _plo = -ub_i;
  long _phi = ub_j;
  if (part_lo > _plo) _plo = part_lo;
  if (part_hi < _phi) _phi = part_hi;
  for (long p = _plo; p <= _phi; p++) {
    const long _t0 = max(0,-p);
    const long _t1 = min(ub_i,ub_j-p);
    #pragma omp parallel for
    for (long i = _t0; i <= _t1; i++) {
      long j = i+p;
      long _t2;
      if ((j < (i + 2))) {
        _t2 = 0;
      } else {
        double _t3;
        double _t4 = -INFINITY;
        for (long k = (i + 1); k <= (j - 1); k++) {
          _t4 = max(_t4, (farr[(i) * (ub_j + 1) + k] + farr[(k) * (ub_j + 1) + j]));
        }
        _t3 = _t4;
        _t2 = max(max(max(farr[((i + 1)) * (ub_j + 1) + j], farr[(i) * (ub_j + 1) + (j - 1)]), (farr[((i + 1)) * (ub_j + 1) + (j - 1)] + ((seq_x[i] == 97) ? ((seq_x[(j - 1)] == 117) ? 1 : 0) : ((seq_x[i] == 117) ? ((seq_x[(j - 1)] == 97) ? 1 : ((seq_x[(j - 1)] == 103) ? 1 : 0)) : ((seq_x[i] == 99) ? ((seq_x[(j - 1)] == 103) ? 1 : 0) : ((seq_x[(j - 1)] == 99) ? 1 : ((seq_x[(j - 1)] == 117) ? 1 : 0))))))), _t3);
      }
      farr[(i) * (ub_j + 1) + j] = _t2;
    }
  }
}

void repro_nuss_batched(long* btab, long nprob, long part_lo, long part_hi, long pad_i, long pad_j, const long* b_ub_i, const long* b_ub_j, const long* b_seq_x, long b_seq_x_cols) {
  const long _tsz = pad_i * pad_j;
  #pragma omp parallel for schedule(static)
  for (long _b = 0; _b < nprob; _b++) {
    long* farr = btab + _b * _tsz;
    const long ub_i = b_ub_i[_b];
    const long ub_j = b_ub_j[_b];
    const long* seq_x = b_seq_x + _b * b_seq_x_cols;
    long _plo = -ub_i;
    long _phi = ub_j;
    if (part_lo > _plo) _plo = part_lo;
    if (part_hi < _phi) _phi = part_hi;
    for (long p = _plo; p <= _phi; p++) {
      for (long i = max(0,-p); i <= min(ub_i,ub_j-p); i++) {
        long j = i+p;
        long _t0;
        if ((j < (i + 2))) {
          _t0 = 0;
        } else {
          double _t1;
          double _t2 = -INFINITY;
          for (long k = (i + 1); k <= (j - 1); k++) {
            _t2 = max(_t2, (farr[(i) * (pad_j) + k] + farr[(k) * (pad_j) + j]));
          }
          _t1 = _t2;
          _t0 = max(max(max(farr[((i + 1)) * (pad_j) + j], farr[(i) * (pad_j) + (j - 1)]), (farr[((i + 1)) * (pad_j) + (j - 1)] + ((seq_x[i] == 97) ? ((seq_x[(j - 1)] == 117) ? 1 : 0) : ((seq_x[i] == 117) ? ((seq_x[(j - 1)] == 97) ? 1 : ((seq_x[(j - 1)] == 103) ? 1 : 0)) : ((seq_x[i] == 99) ? ((seq_x[(j - 1)] == 103) ? 1 : 0) : ((seq_x[(j - 1)] == 99) ? 1 : ((seq_x[(j - 1)] == 117) ? 1 : 0))))))), _t1);
        }
        farr[(i) * (pad_j) + j] = _t0;
      }
    }
  }
}

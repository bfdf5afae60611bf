/* native kernel: viterbi (schedule S = i) */
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

void repro_viterbi(double* farr, long part_lo, long part_hi, long ub_s, long ub_i, const long* seq_x, const int* hmm_h_isstart, const int* hmm_h_isend, const double* hmm_h_emis, const long* hmm_h_symidx, long h_nsym, const double* hmm_h_tprob, const long* hmm_h_tsrc, const long* hmm_h_ttgt, const long* hmm_h_inoff, const long* hmm_h_inids, const long* hmm_h_outoff, const long* hmm_h_outids) {
  (void) hmm_h_ttgt;
  (void) hmm_h_outoff;
  (void) hmm_h_outids;
  long _plo = 0;
  long _phi = ub_i;
  if (part_lo > _plo) _plo = part_lo;
  if (part_hi < _phi) _phi = part_hi;
  for (long p = _plo; p <= _phi; p++) {
    const long _t0 = 0;
    const long _t1 = ub_s;
    #pragma omp parallel for
    for (long s = _t0; s <= _t1; s++) {
      long i = p;
      double _t2;
      if ((i == 0)) {
        _t2 = (hmm_h_isstart[s] ? 1.0 : 0.0);
      } else {
        double _t3;
        double _t4 = 0.0;
        for (int _e = hmm_h_inoff[s]; _e < hmm_h_inoff[s + 1]; _e++) {
          int t = hmm_h_inids[_e];
          _t4 = max(_t4, (hmm_h_tprob[t] * farr[(hmm_h_tsrc[t]) * (ub_i + 1) + (i - 1)]));
        }
        _t3 = _t4;
        _t2 = (hmm_h_isend[s] ? 1.0 : hmm_h_emis[s * h_nsym + hmm_h_symidx[seq_x[(i - 1)]]]) * _t3;
      }
      farr[(s) * (ub_i + 1) + i] = _t2;
    }
  }
}

void repro_viterbi_batched(double* btab, long nprob, long part_lo, long part_hi, long pad_s, long pad_i, const long* b_ub_s, const long* b_ub_i, const long* b_seq_x, long b_seq_x_cols, const int* hmm_h_isstart, const int* hmm_h_isend, const double* hmm_h_emis, const long* hmm_h_symidx, long h_nsym, const double* hmm_h_tprob, const long* hmm_h_tsrc, const long* hmm_h_ttgt, const long* hmm_h_inoff, const long* hmm_h_inids, const long* hmm_h_outoff, const long* hmm_h_outids) {
  (void) hmm_h_ttgt;
  (void) hmm_h_outoff;
  (void) hmm_h_outids;
  const long _tsz = pad_s * pad_i;
  #pragma omp parallel for schedule(static)
  for (long _b = 0; _b < nprob; _b++) {
    double* farr = btab + _b * _tsz;
    const long ub_s = b_ub_s[_b];
    const long ub_i = b_ub_i[_b];
    const long* seq_x = b_seq_x + _b * b_seq_x_cols;
    long _plo = 0;
    long _phi = ub_i;
    if (part_lo > _plo) _plo = part_lo;
    if (part_hi < _phi) _phi = part_hi;
    for (long p = _plo; p <= _phi; p++) {
      for (long s = 0; s <= ub_s; s++) {
        long i = p;
        double _t0;
        if ((i == 0)) {
          _t0 = (hmm_h_isstart[s] ? 1.0 : 0.0);
        } else {
          double _t1;
          double _t2 = 0.0;
          for (int _e = hmm_h_inoff[s]; _e < hmm_h_inoff[s + 1]; _e++) {
            int t = hmm_h_inids[_e];
            _t2 = max(_t2, (hmm_h_tprob[t] * farr[(hmm_h_tsrc[t]) * (pad_i) + (i - 1)]));
          }
          _t1 = _t2;
          _t0 = (hmm_h_isend[s] ? 1.0 : hmm_h_emis[s * h_nsym + hmm_h_symidx[seq_x[(i - 1)]]]) * _t1;
        }
        farr[(s) * (pad_i) + i] = _t0;
      }
    }
  }
}

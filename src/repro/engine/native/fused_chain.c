/*
 * Fused Algorithm 4.1 for one (chain, bound) query: prime windows,
 * membership intervals, the non-redundant edge reduction and the
 * TEMP_S sweep with cut reconstruction, in one O(n + p log q) pass over
 * the prefix-weight array.
 *
 * Every float expression and tie-break mirrors repro.engine.kernels
 * (prime_windows, membership_intervals, reduced_edge_arrays,
 * sweep_min_cut) and repro.core.prime_subpaths term for term, so the
 * cut and its weight are bit-identical to the pure-Python reference:
 *
 *   - criticality uses the subtraction form prefix[j] - prefix[a] > K;
 *   - a critical window spans at least two tasks (the a + 2 floor);
 *   - of candidates sharing a right end only the last survives;
 *   - the reduction keeps the leftmost minimum-weight edge per class;
 *   - W_j = beta_j + W(S_gamma), and the binary search is bisect_left.
 *
 * Build with -O2 -ffp-contract=off and never -ffast-math: a fused
 * multiply-add or reassociated sum would round differently from the
 * interpreter.  There are no multiplications here today, but the flag
 * keeps that true if the code grows.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD != 0
#error "double arithmetic must not use excess precision"
#endif

/* Scratch for one call; every array is freed before returning. */
typedef struct {
    int64_t *prime_first; /* first task of prime i */
    int64_t *prime_last;  /* last task of prime i */
    int64_t *row_lo;      /* TEMP_S rows, TOP..BOTTOM */
    int64_t *row_hi;
    double *row_w;
    int64_t *row_sol;
    int64_t *sol_edge;    /* solution arena: chain edge, predecessor, */
    int64_t *sol_prev;    /* cumulative cut weight */
    double *sol_w;
} scratch_t;

static void scratch_free(scratch_t *s)
{
    free(s->prime_first);
    free(s->prime_last);
    free(s->row_lo);
    free(s->row_hi);
    free(s->row_w);
    free(s->row_sol);
    free(s->sol_edge);
    free(s->sol_prev);
    free(s->sol_w);
}

static int scratch_alloc(scratch_t *s, int64_t n)
{
    size_t tasks = (size_t)n;
    size_t edges = n > 1 ? (size_t)(n - 1) : 1;
    s->prime_first = malloc(tasks * sizeof(int64_t));
    s->prime_last = malloc(tasks * sizeof(int64_t));
    s->row_lo = malloc(edges * sizeof(int64_t));
    s->row_hi = malloc(edges * sizeof(int64_t));
    s->row_w = malloc(edges * sizeof(double));
    s->row_sol = malloc(edges * sizeof(int64_t));
    s->sol_edge = malloc(edges * sizeof(int64_t));
    s->sol_prev = malloc(edges * sizeof(int64_t));
    s->sol_w = malloc(edges * sizeof(double));
    return s->prime_first && s->prime_last && s->row_lo && s->row_hi
        && s->row_w && s->row_sol && s->sol_edge && s->sol_prev && s->sol_w;
}

/* The TEMP_S queue plus the solution arena of sweep_min_cut. */
typedef struct {
    scratch_t *s;
    int64_t top;
    int64_t size;
    int64_t gamma; /* solution id of S_{first_prime - 1}; -1 = empty */
    int64_t sols;
} sweep_t;

/* One non-redundant edge through the sweep (sweep_min_cut's loop body). */
static void sweep_edge(sweep_t *q, int64_t j, double bw, int64_t fp,
                       int64_t lp)
{
    scratch_t *s = q->s;
    int64_t *row_lo = s->row_lo, *row_hi = s->row_hi, *row_sol = s->row_sol;
    double *row_w = s->row_w;
    double wv;
    int64_t prev, sid, split, lo, hi;

    /* Retire primes completed before this edge (pop_completed). */
    while (q->top < q->size) {
        if (row_lo[q->top] >= fp)
            break;
        q->gamma = row_sol[q->top];
        if (row_hi[q->top] < fp) {
            q->top++; /* entire row retired */
        } else {
            row_lo[q->top] = fp; /* trim and stop */
            break;
        }
    }
    if (fp > 0 && q->gamma >= 0) {
        wv = bw + s->sol_w[q->gamma];
        prev = q->gamma;
    } else {
        wv = bw;
        prev = -1;
    }
    sid = q->sols++;
    s->sol_edge[sid] = j;
    s->sol_prev[sid] = prev;
    s->sol_w[sid] = wv;
    /* bisect_left(row_w, wv, top, size): first row with W >= wv. */
    lo = q->top;
    hi = q->size;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (row_w[mid] < wv)
            lo = mid + 1;
        else
            hi = mid;
    }
    split = lo;
    if (split < q->size) {
        int64_t bottom_hi = row_hi[q->size - 1];
        row_hi[split] = bottom_hi > lp ? bottom_hi : lp;
        row_w[split] = wv;
        row_sol[split] = sid;
        q->size = split + 1;
    } else if (q->top >= q->size) {
        /* Queue drained: anchor a fresh row at this edge's range. */
        row_lo[q->size] = fp;
        row_hi[q->size] = lp;
        row_w[q->size] = wv;
        row_sol[q->size] = sid;
        q->size++;
    } else if (lp > row_hi[q->size - 1]) {
        row_lo[q->size] = row_hi[q->size - 1] + 1;
        row_hi[q->size] = lp;
        row_w[q->size] = wv;
        row_sol[q->size] = sid;
        q->size++;
    }
    /* else: wv exceeds every open minimum and opens nothing. */
}

/*
 * Solve one query.  prefix has n + 1 entries, beta n - 1.  The optimal
 * cut's edge indices go to cut_out (capacity max(n - 1, 1)), in
 * increasing order; out_f receives {weight, min_prime_weight} and out_i
 * {p, r}.  Returns the cut length, or -1 when scratch allocation fails.
 */
int64_t repro_fused_chain_solve(const double *prefix, const double *beta,
                                int64_t n, double bound, int reduce,
                                int64_t *cut_out, double *out_f,
                                int64_t *out_i)
{
    scratch_t s = {0};
    sweep_t q;
    int64_t p = 0, r = 0, a, b = 0, i, j, lo, hi, count, node;
    int64_t pend_j = -1, pend_lo = 0, pend_hi = 0;
    double pend_w = 0.0, min_w = INFINITY;

    if (!scratch_alloc(&s, n)) {
        scratch_free(&s);
        return -1;
    }

    /* Two-pointer prime-window scan (find_prime_subpaths): b is the
     * last task of the minimal critical window starting at a. */
    for (a = 0; a < n; a++) {
        if (b <= a)
            b = a + 1; /* floor: at least two tasks */
        while (b < n && prefix[b + 1] - prefix[a] <= bound)
            b++;
        if (b == n)
            break; /* no window starting at >= a exceeds the bound */
        if (p > 0 && s.prime_last[p - 1] == b) {
            s.prime_first[p - 1] = a; /* the earlier candidate is dominated */
        } else {
            s.prime_first[p] = a;
            s.prime_last[p] = b;
            p++;
        }
    }
    for (i = 0; i < p; i++) {
        double w = prefix[s.prime_last[i] + 1] - prefix[s.prime_first[i]];
        if (i == 0 || w < min_w)
            min_w = w;
    }

    /* Membership intervals, the reduction and the sweep, streamed in
     * edge order: edge j lies in primes lo..hi, where lo is the first
     * prime whose last edge is >= j and hi the last prime whose first
     * edge is <= j. */
    q.s = &s;
    q.top = 0;
    q.size = 0;
    q.gamma = -1;
    q.sols = 0;
    lo = 0;
    hi = -1;
    for (j = 0; j + 1 < n; j++) {
        while (lo < p && s.prime_last[lo] - 1 < j)
            lo++;
        while (hi + 1 < p && s.prime_first[hi + 1] <= j)
            hi++;
        if (lo > hi)
            continue; /* edge in no prime subpath */
        if (!reduce) {
            sweep_edge(&q, j, beta[j], lo, hi);
            r++;
        } else if (pend_j >= 0 && pend_lo == lo && pend_hi == hi) {
            if (beta[j] < pend_w) { /* leftmost minimum on ties */
                pend_j = j;
                pend_w = beta[j];
            }
        } else {
            if (pend_j >= 0) {
                sweep_edge(&q, pend_j, pend_w, pend_lo, pend_hi);
                r++;
            }
            pend_j = j;
            pend_w = beta[j];
            pend_lo = lo;
            pend_hi = hi;
        }
    }
    if (pend_j >= 0) {
        sweep_edge(&q, pend_j, pend_w, pend_lo, pend_hi);
        r++;
    }

    out_i[0] = p;
    out_i[1] = r;
    out_f[1] = min_w;
    if (q.top >= q.size) {
        out_f[0] = 0.0;
        scratch_free(&s);
        return 0;
    }
    /* Solution S_p sits in the BOTTOM row; walk its edge chain. */
    out_f[0] = s.row_w[q.size - 1];
    count = 0;
    for (node = s.row_sol[q.size - 1]; node >= 0; node = s.sol_prev[node])
        count++;
    i = count;
    for (node = s.row_sol[q.size - 1]; node >= 0; node = s.sol_prev[node])
        cut_out[--i] = s.sol_edge[node];
    scratch_free(&s);
    return count;
}

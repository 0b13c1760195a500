/*
 * The trace sampler's generator calls for a whole block in one call each:
 * its exponentials, and the jump chain with its Poisson draws.
 *
 * A Philox4x64-10 bit generator that draws what numpy's Philox draws, bit for
 * bit, behind numpy's bitgen_t, so numpy's own distribution functions
 * (random_standard_exponential_fill, random_poisson, from the static
 * libnpyrandom that numpy ships) run on it.  Row i of a block is keyed with
 * key words keys[2i], keys[2i + 1] at counter 0 and an empty buffer, as
 * numpy's Philox(key=...) starts, so it draws what the scratch generator
 * draws once set to that key.
 *
 * Build: cc -O3 -fPIC -shared -o _sampler.so _sampler.c
 *        -I<numpy.get_include()> -I<the Python include directory>
 *        -L<numpy>/random/lib -lnpyrandom -lm
 */
#include <math.h>
#include <stdint.h>

#include "numpy/random/distributions.h"

/* All 64-bit words, so that a block's states are one uint64 array. */
typedef struct {
    uint64_t counter[4];
    uint64_t key[2];
    uint64_t buffer[4];
    uint64_t buffer_pos;
    uint64_t has_uint32;
    uint64_t uinteger;
} philox_state;

int64_t dixie_state_words(void) { return sizeof(philox_state) / sizeof(uint64_t); }

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* One round: two 64 x 64 -> 128-bit products, mixed with the key. */
#define ROUND                                                   \
    do {                                                        \
        __uint128_t p0 = (__uint128_t)PHILOX_M0 * c0;           \
        __uint128_t p1 = (__uint128_t)PHILOX_M1 * c2;           \
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;                    \
        c1 = (uint64_t)p1;                                      \
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;                    \
        c3 = (uint64_t)p0;                                      \
    } while (0)
#define BUMP (k0 += PHILOX_W0, k1 += PHILOX_W1)

/* Increment the counter, with carry, and fill the buffer with its 10-round
 * image under the key.  The rounds are unrolled: a rolled loop drew
 * exponentials slower than numpy's Philox. */
static void philox_refill(philox_state *s) {
    if (++s->counter[0] == 0 && ++s->counter[1] == 0 && ++s->counter[2] == 0) {
        ++s->counter[3];
    }
    uint64_t c0 = s->counter[0], c1 = s->counter[1], c2 = s->counter[2], c3 = s->counter[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; BUMP;
    ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND;
    s->buffer[0] = c0;
    s->buffer[1] = c1;
    s->buffer[2] = c2;
    s->buffer[3] = c3;
    s->buffer_pos = 0;
}

static inline uint64_t philox_next64(philox_state *s) {
    if (s->buffer_pos == 4) {
        philox_refill(s);
    }
    return s->buffer[s->buffer_pos++];
}

static uint64_t philox_uint64(void *st) { return philox_next64((philox_state *)st); }

static uint32_t philox_uint32(void *st) {
    philox_state *s = (philox_state *)st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return (uint32_t)s->uinteger;
    }
    uint64_t next = philox_next64(s);
    s->has_uint32 = 1;
    s->uinteger = next >> 32;
    return (uint32_t)next;
}

static double philox_double(void *st) {
    return (philox_next64((philox_state *)st) >> 11) * (1.0 / 9007199254740992.0);
}

static bitgen_t bitgen_of(philox_state *s) {
    bitgen_t bitgen = {s, philox_uint64, philox_uint32, philox_double, philox_uint64};
    return bitgen;
}

/* Key row i of a block of `rows`, fill its `count` standard exponentials at
 * out + i * count, and leave its generator state in states[i]. */
void dixie_exponentials(int64_t rows, int64_t count, const uint64_t *keys, double *out,
                        philox_state *states) {
    for (int64_t i = 0; i < rows; i++) {
        philox_state *s = &states[i];
        *s = (philox_state){.key = {keys[2 * i], keys[2 * i + 1]}, .buffer_pos = 4};
        bitgen_t bitgen = bitgen_of(s);
        random_standard_exponential_fill(&bitgen, count, out + i * count);
    }
}

/* A Poisson draw of mean lam, as numpy's random_poisson draws it: numpy's own
 * function for lam >= 10; for 0 < lam < 10 its multiplication method, inlined
 * on the inlined Philox, which draws the same uniforms as its next_double;
 * nothing for lam == 0. */
static inline int64_t poisson(philox_state *s, bitgen_t *bitgen, double lam) {
    if (lam >= 10) {
        return random_poisson(bitgen, lam);
    }
    if (lam == 0) {
        return 0;
    }
    const double enlam = exp(-lam);
    double prod = 1.0;
    int64_t x = 0;
    while (1) {
        prod *= (philox_next64(s) >> 11) * (1.0 / 9007199254740992.0);
        if (prod > enlam) {
            x += 1;
        } else {
            return x;
        }
    }
}

/* The jump chain of each row of a block of `rows` traces of n types and
 * r_max tracked arrivals each, from states[i], as discrete.py's _jump_chain
 * derives it with numpy's draws.  times holds each row's n * r_max
 * poissonized times, type-major; keys holds each row's arrivals in time
 * order, each as a uint64 whose low `bits` bits are its position in the row.
 * The untracked draws in the gap before the k-th event in time order are
 * Poisson with mean (gap * completed) / n, with completed the types whose
 * last tracked arrival came before it; each event's draw number, written to
 * arrivals at its position, is the one before it plus one plus those draws.
 *
 * With `checked`, each key is the time's bits with the low `bits` replaced
 * by the position: if the high parts of some row do not strictly increase,
 * two of its times may be out of order or tied, and it returns 1 before any
 * draw.  Else it returns 2 if two consecutive events of some row are at one
 * time, an exact tie, and 0 if none are.  The means stay far below numpy's
 * limit, since times are sums of r_max exponentials times n < 2**32. */
int64_t dixie_chain(int64_t rows, int64_t n, int64_t r_max, philox_state *states,
                    const uint64_t *keys, int64_t bits, int64_t checked, const double *times,
                    int64_t *arrivals) {
    const int64_t size = n * r_max;
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    int64_t tied = 0;
    for (int64_t i = 0; checked && i < rows; i++) {
        for (int64_t k = i * size + 1; k < (i + 1) * size; k++) {
            if ((keys[k] >> bits) <= (keys[k - 1] >> bits)) {
                return 1;
            }
        }
    }
    for (int64_t i = 0; i < rows; i++) {
        philox_state *s = &states[i];
        bitgen_t bitgen = bitgen_of(s);
        const uint64_t *row_keys = keys + i * size;
        const double *row_times = times + i * size;
        int64_t *row_arrivals = arrivals + i * size;
        uint64_t at = row_keys[0] & mask;
        double last = row_times[at];
        double completed = at % r_max == r_max - 1;
        int64_t draw = 1;
        row_arrivals[at] = draw;
        for (int64_t k = 1; k < size; k++) {
            /* an event's time and arrival lie anywhere in its row: fetched 16
             * events early, the chain at n = 1e5 took 20% less time */
            if (k + 16 < size) {
                __builtin_prefetch(&row_times[row_keys[k + 16] & mask]);
                __builtin_prefetch(&row_arrivals[row_keys[k + 16] & mask], 1);
            }
            at = row_keys[k] & mask;
            const double gap = row_times[at] - last;
            const double lam = gap * completed / n;
            tied |= gap == 0;
            last = row_times[at];
            draw += 1 + poisson(s, &bitgen, lam);
            row_arrivals[at] = draw;
            completed += at % r_max == r_max - 1;
        }
    }
    return tied ? 2 : 0;
}

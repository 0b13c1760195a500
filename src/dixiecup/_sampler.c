/*
 * The trace sampler's generator calls for a whole block in one call each.
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

/* From states[i], draw out[i * (count + 1) + k + 1] = Poisson(lam[i * count + k])
 * for k < count, in order, for each row i; the states advance, and column 0
 * of out is left as it is.  Returns 0, or -1 before any draw if some lam is
 * negative, NaN or above numpy's limit. */
int64_t dixie_poisson(int64_t rows, int64_t count, philox_state *states, const double *lam,
                      int64_t *out) {
    /* numpy's POISSON_LAM_MAX: the largest int64 less 10 standard deviations */
    const double lam_max = (double)INT64_MAX - sqrt((double)INT64_MAX) * 10;
    for (int64_t k = 0; k < rows * count; k++) {
        if (!(lam[k] >= 0 && lam[k] <= lam_max)) {
            return -1;
        }
    }
    for (int64_t i = 0; i < rows; i++) {
        bitgen_t bitgen = bitgen_of(&states[i]);
        const double *row_lam = lam + i * count;
        int64_t *row_out = out + i * (count + 1) + 1;
        for (int64_t k = 0; k < count; k++) {
            row_out[k] = random_poisson(&bitgen, row_lam[k]);
        }
    }
    return 0;
}

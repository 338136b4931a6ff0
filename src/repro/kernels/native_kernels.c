/* The ``native`` kernel backend: fused per-tile compositing kernels (the
 * first part of this file, static: only the view calls use them), the
 * whole-view ops built around them (the second), CLM's data path over row
 * indices (the third), the photometric loss between a view's forward and
 * backward passes (the fourth), a batch's plan (the fifth) and a
 * microbatch step calling the others (the sixth): a CLM one, and one over a
 * resident model.
 *
 * Plain C99 over libm: no Python headers, no threads, no static state (the
 * caller releases the GIL, so several calls may be inside a kernel at once).
 * Built by repro/kernels/native_backend.py with -ffp-contract=off and without
 * -ffast-math / -march, so every operation rounds as an IEEE double in program
 * order and two runs over the same operands are bit-identical.
 *
 * Operands are the CSR TileBins and the padded _AugArrays of
 * repro/gaussians/rasterizer.py: tile i has linear id tile_ids[i] and the
 * near-to-far rows order[offsets[i] .. offsets[i+1]) into the per-Gaussian
 * arrays.  Canvases and the upstream gradient are tile-major, (tiles, P[, 3])
 * with P = ts * ts row-major pixels per tile.
 *
 * Per cell the semantics are those of rasterizer.tile_alpha_weights:
 *
 *     alpha_raw = opacity * exp(min(power, 0))
 *     passes    = alpha_raw >= alpha_threshold
 *     alpha     = min(alpha_raw, max_alpha), gradient gated by alpha_raw < max_alpha
 *     active    = T_before > transmittance_min   (T keeps multiplying after)
 *
 * The loops are entry-outer: per (tile, splat) entry only the pixels of the
 * splat's thresholded footprint rectangle are visited, and only the cells
 * whose exponent reaches the cut can pass the threshold.  Both cuts are
 * conservative (the exact test follows), see footprint().  Along a footprint
 * row exp() is taken once and then advanced by two multiplies a cell, see
 * walk_tile().
 *
 * What this file shares with Python is not written here: the backend
 * prepends a header it generates from one declaration (native_backend.header:
 * the F_* / W_* field offsets and widths of a render's block, the P_* slots
 * of the params vector, the STATUS_* codes every entry point returns, the
 * STAGE_* and OUT_* slots of train_step's report, and FOOTPRINT_MARGIN,
 * PREFILTER_MARGIN and SH_C0..SH_C3 taken from rasterizer, frustum and sh),
 * and reads every entry point's argument types from its prototype below.
 */

#define _POSIX_C_SOURCE 199309L  /* clock_gettime: plan_batch, the steps */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* walk_tile()'s row recurrence: it advances at most REANCHOR - 1 cells past an
 * exact exp(), and recomputes with libm every value within NEAR_THRESHOLD of
 * alpha_threshold, relative (its own error is ~1e-14), so that libm decides
 * every threshold verdict. */
#define REANCHOR 8
#define NEAR_THRESHOLD 1e-12

/* The blend state a forward pass may leave for its backward pass: per cell
 * that passed the threshold its exp value, T_before and tile-local pixel
 * (room for ``cap`` cells); the cells of CSR entry k are [end[k], end[k+1]);
 * and tile i's final T at t_final[i * ts * ts].  Only the view ops keep it. */
typedef struct {
    double *t_final, *w, *t;
    int32_t *pixel;
    int64_t *end, cap;
} records_t;

/* The blend records in a render's own blocks: ``rec_f`` is ``lead`` doubles
 * of final T, then ``cap`` exp values, then ``cap`` T_before. */
static records_t records_of(
    double *rec_f, int32_t *rec_p, int64_t *rec_end, int64_t cap, int64_t lead)
{
    records_t rec = {rec_f, NULL, NULL, rec_p, rec_end, cap};
    if (rec_f != NULL) {
        rec.w = rec_f + lead;
        rec.t = rec.w + cap;
    }
    return rec;
}

/* One row of the per-Gaussian arrays and its thresholded footprint: the
 * unclipped inclusive pixel bounds (image coordinates) of {alpha_raw >= tau},
 * the exponent below which a cell cannot reach the threshold, and whether
 * walk_tile() may run its row recurrence, with exp(-a) when it may. */
typedef struct {
    double mx, my, a, b, c, opac;
    double x_lo, x_hi, y_lo, y_hi, cut, ratio;
    int recur;
} splat_t;

/* Load one row and bound {alpha_raw >= tau}: the ellipse q <= 2 ln(opacity /
 * tau), level and half-extents each grown by the margin, exactly as
 * rasterizer._compute_tile_rects bins it.  tau <= 0 bounds nothing and never
 * cuts; a NaN extent leaves its axis unclipped by clip() (fmax/fmin drop a
 * NaN operand) and a NaN cut compares false, so neither ever skips.  Only a
 * finite cut over a positive-definite conic recurs: along a row of an
 * indefinite one the product grows until it overflows. */
static splat_t footprint(
    int64_t row, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac, double tau)
{
    splat_t s = {mx[row], my[row], ca[row], cb[row], cc[row], opac[row],
                 -INFINITY, INFINITY, -INFINITY, INFINITY, -INFINITY, 0.0, 0};
    if (tau > 0.0) {
        double level = 2.0 * log(s.opac / tau);
        level += FOOTPRINT_MARGIN * (1.0 + level);
        double det = s.a * s.c - s.b * s.b;
        double half_x = sqrt(level * s.c / det);
        double half_y = sqrt(level * s.a / det);
        half_x += FOOTPRINT_MARGIN * (1.0 + half_x);
        half_y += FOOTPRINT_MARGIN * (1.0 + half_y);
        /* Pixel i has its centre at i + 0.5. */
        s.x_lo = ceil(s.mx - 0.5 - half_x);
        s.x_hi = floor(s.mx - 0.5 + half_x);
        s.y_lo = ceil(s.my - 0.5 - half_y);
        s.y_hi = floor(s.my - 0.5 + half_y);
        s.cut = -0.5 * level;
        s.recur = isfinite(s.cut) && s.a > 0.0 && det > 0.0;
    }
    return s;
}

/* A footprint clipped to the pixel range [x0, x1] x [y0, y1]: rect = x_lo,
 * x_hi, y_lo, y_hi. */
static inline void clip(
    const splat_t *s, int64_t x0, int64_t x1, int64_t y0, int64_t y1,
    int64_t *rect)
{
    rect[0] = (int64_t)fmax((double)x0, s->x_lo);
    rect[1] = (int64_t)fmin((double)x1, s->x_hi);
    rect[2] = (int64_t)fmax((double)y0, s->y_lo);
    rect[3] = (int64_t)fmin((double)y1, s->y_hi);
}

/* The footprints of rows [0, rows), computed once per splat rather than per
 * (tile, splat) entry; NULL when they cannot be allocated. */
static splat_t *splats_of(
    int64_t rows, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac, double tau)
{
    splat_t *s = malloc((size_t)(rows > 0 ? rows : 1) * sizeof *s);
    for (int64_t r = 0; s != NULL && r < rows; r++) {
        s[r] = footprint(r, mx, my, ca, cb, cc, opac, tau);
        if (s[r].recur)
            s[r].ratio = exp(-s[r].a);
    }
    return s;
}

/* min(e, 1), in the form that keeps a NaN: exp(min(power, 0)) is
 * unit(exp(power)) for every power, NaN included. */
static inline double unit(double e) { return e > 1.0 ? 1.0 : e; }

static inline int64_t min_i64(int64_t a, int64_t b) { return a < b ? a : b; }

/* The pixel range [x0, x1] x [y0, y1] of tile t_id, clipped to the image. */
typedef struct {
    int64_t x0, y0, x1, y1;
} tile_t;

static tile_t tile_at(
    int64_t t_id, int64_t tiles_x, int64_t ts, int64_t width, int64_t height)
{
    tile_t t;
    t.x0 = (t_id % tiles_x) * ts;
    t.y0 = (t_id / tiles_x) * ts;
    t.x1 = min_i64(t.x0 + ts, width) - 1;
    t.y1 = min_i64(t.y0 + ts, height) - 1;
    return t;
}

/* The one compositing walk, over the entries [start, stop) of a tile: its T
 * (ts * ts pixels, set to 1 here) multiplied down near to far, the colour
 * blended into ``rgb`` (zeroed here) unless it is NULL, and the blend records
 * kept in ``rec`` (entry k's end at rec->end[k - start + 1], cells from
 * *nrec on) unless it is NULL.  The forward pass and the backward pass's
 * replay both call it, so both see the same cells with the same bits.
 *
 * Along a footprint row the exponent is a quadratic in x whose second
 * difference is -a.  So past an exact exp() at the first cell past the cut,
 * of the value E and of the ratio D to the next cell, a cell costs two
 * multiplies: E *= D, D *= exp(-a).  The row re-anchors every REANCHOR cells
 * and after any cell the cut skips; a splat that does not recur (see
 * footprint()) takes exp() per cell.  Returns STATUS_VIOLATED, having
 * written no record past ``rec->cap``, when more cells pass than that. */
static int walk_tile(
    const int64_t *order, int64_t start, int64_t stop, const splat_t *splats,
    const double *colors, tile_t tile, int64_t ts, double tau, double t_min,
    double max_alpha, double *T, double *rgb, const records_t *rec,
    int64_t *nrec)
{
    int64_t n = *nrec;
    for (int64_t p = 0; p < ts * ts; p++) {
        T[p] = 1.0;
        if (rgb != NULL)
            rgb[3 * p] = rgb[3 * p + 1] = rgb[3 * p + 2] = 0.0;
    }
    for (int64_t k = start; k < stop; k++) {
        const int64_t row = order[k];
        const splat_t sp = splats[row], *s = &sp;  /* a copy T cannot alias */
        const double c0 = colors[3 * row], c1 = colors[3 * row + 1],
                     c2 = colors[3 * row + 2];
        int64_t rect[4];
        clip(s, tile.x0, tile.x1, tile.y0, tile.y1, rect);
        for (int64_t y = rect[2]; y <= rect[3]; y++) {
            const double dy = ((double)y + 0.5) - s->my;
            const double cyy = s->c * dy * dy, bdy = s->b * dy;
            const int64_t base = (y - tile.y0) * ts - tile.x0;
            double e = 0.0, d = 0.0;
            int left = 0;  /* recurrence steps before the next exact exp() */
            for (int64_t x = rect[0]; x <= rect[1]; x++) {
                const double dx = ((double)x + 0.5) - s->mx;
                const double power = -0.5 * (s->a * dx * dx + cyy) - bdy * dx;
                if (power < s->cut) {
                    left = 0;
                    continue;
                }
                double w;
                if (left > 0) {
                    e *= d;
                    d *= s->ratio;
                    left--;
                    w = unit(e);
                    if (fabs(s->opac * w - tau) <= NEAR_THRESHOLD * tau)
                        w = unit(exp(power));
                } else {
                    w = unit(e = exp(power));
                    if (s->recur) {
                        d = exp(-(s->a * (dx + 0.5) + bdy));
                        left = REANCHOR - 1;
                    }
                }
                const double alpha_raw = s->opac * w;
                if (!(alpha_raw >= tau))
                    continue;
                const double alpha =
                    alpha_raw < max_alpha ? alpha_raw : max_alpha;
                const int64_t p = base + x;
                const double t = T[p];
                if (rec != NULL) {
                    if (n == rec->cap)
                        return STATUS_VIOLATED;
                    rec->w[n] = w;
                    rec->t[n] = t;
                    rec->pixel[n++] = (int32_t)p;
                }
                if (rgb != NULL && t > t_min) {
                    const double blend = alpha * t;
                    rgb[3 * p] += blend * c0;
                    rgb[3 * p + 1] += blend * c1;
                    rgb[3 * p + 2] += blend * c2;
                }
                T[p] = t * (1.0 - alpha);
            }
        }
        if (rec != NULL)
            rec->end[k - start + 1] = n;
    }
    *nrec = n;
    return STATUS_OK;
}

/* Composite every non-empty tile into the tile-major canvases, keeping the
 * blend state in the records (see records_of(), room for ``cap`` cells)
 * unless ``rec_f`` is NULL.  Returns STATUS_NO_MEMORY when the footprints
 * cannot be allocated, STATUS_VIOLATED when walk_tile() runs out of
 * records. */
static int raster_forward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, int64_t rows, const double *mx, const double *my,
    const double *ca, const double *cb, const double *cc, const double *opac,
    const double *colors, const double *bg, double tau, double t_min,
    double max_alpha, double *canvas_rgb, double *canvas_t, double *rec_f,
    int32_t *rec_p, int64_t *rec_end, int64_t cap)
{
    const int64_t pixels = ts * ts;
    const records_t kept =
        records_of(rec_f, rec_p, rec_end, cap, num_tiles * pixels);
    const records_t *rec = rec_f != NULL ? &kept : NULL;
    splat_t *splats = splats_of(rows, mx, my, ca, cb, cc, opac, tau);
    if (splats == NULL)
        return STATUS_NO_MEMORY;
    int failed = STATUS_OK;
    int64_t nrec = 0;
    if (rec != NULL)
        rec->end[0] = 0;
    for (int64_t i = 0; i < num_tiles; i++) {
        const int64_t t_id = tile_ids[i];
        double *T = canvas_t + t_id * pixels;
        double *rgb = canvas_rgb + t_id * pixels * 3;
        records_t tile_rec = {0};
        if (rec != NULL) {
            tile_rec = *rec;
            tile_rec.end += offsets[i];
        }
        failed = walk_tile(
            order, offsets[i], offsets[i + 1], splats, colors,
            tile_at(t_id, tiles_x, ts, width, height), ts, tau, t_min,
            max_alpha, T, rgb, rec != NULL ? &tile_rec : NULL, &nrec);
        if (failed)
            break;
        if (rec != NULL)
            memcpy(rec->t_final + i * pixels, T, (size_t)pixels * sizeof(double));
        for (int64_t p = 0; p < pixels; p++) {
            rgb[3 * p] += T[p] * bg[0];
            rgb[3 * p + 1] += T[p] * bg[1];
            rgb[3 * p + 2] += T[p] * bg[2];
        }
    }
    free(splats);
    return failed;
}

/* Compositing gradient, tile by tile, from the blend records (exp value,
 * T_before, pixel) of every cell that passed the threshold — no other cell
 * has a gradient: the forward's records when ``rec_f`` is not NULL (``cap``
 * cells, as raster_forward() kept them), else the tile's own, made by
 * replaying the forward through walk_tile().  Entries are walked far to near
 * (an entry's cells in their own order) with a per-pixel running
 * suffix seeded with the background term, so for a cell under the cap
 * (alpha == alpha_raw; at the cap nothing flows to the splat's geometry or
 * opacity)
 *
 *     suffix    = T_final (g . bg) + sum over the cells behind it of
 *                 active alpha T_before (c . g)
 *     dL/dalpha = active T_before (c . g) - suffix / (1 - alpha)
 *
 * and an entry's sums stay in registers until they are added to its
 * Gaussian's rows of d_colors (M, 3), d_opac (M), d_means (M, 2) and
 * d_conics (M, 2, 2); a row has one entry a tile, and the tiles go in CSR
 * order.  Returns STATUS_NO_MEMORY when the scratch cannot be allocated. */
static int raster_backward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, int64_t rows, const double *mx, const double *my,
    const double *ca, const double *cb, const double *cc, const double *opac,
    const double *colors, const double *bg, double tau, double t_min,
    double max_alpha, const double *g_tiles, double *d_colors, double *d_opac,
    double *d_means, double *d_conics, const double *rec_f,
    const int32_t *rec_p, const int64_t *rec_end, int64_t cap)
{
    const int64_t pixels = ts * ts;
    /* Read only here: the struct's pointers are writable for the forward. */
    const records_t given = records_of(
        (double *)rec_f, (int32_t *)rec_p, (int64_t *)rec_end, cap,
        num_tiles * pixels);
    const records_t *rec = rec_f != NULL ? &given : NULL;
    int64_t deepest = 0;
    for (int64_t i = 0; i < num_tiles; i++)
        if (offsets[i + 1] - offsets[i] > deepest)
            deepest = offsets[i + 1] - offsets[i];
    if (deepest == 0)
        return STATUS_OK;

    /* One block: four per-pixel arrays and, without ``rec``, the records of
     * the deepest tile (at most one per cell: 20 bytes) and their ends. */
    const size_t px = (size_t)pixels, depth = rec != NULL ? 0 : (size_t)deepest;
    const size_t cells = depth * px;
    if (cells / px != depth || cells > SIZE_MAX / 128)
        return STATUS_NO_MEMORY;
    char *scratch = malloc(
        (4 * px + 2 * cells) * sizeof(double) +
        (depth + 1) * sizeof(int64_t) + cells * sizeof(int32_t));
    splat_t *splats =
        rec != NULL ? NULL : splats_of(rows, mx, my, ca, cb, cc, opac, tau);
    if (scratch == NULL || (rec == NULL && splats == NULL)) {
        free(scratch);
        free(splats);
        return STATUS_NO_MEMORY;
    }
    double *T = (double *)scratch, *suffix = T + px;
    double *off_x = suffix + px, *off_y = off_x + px;
    records_t own = {NULL, off_y + px, NULL, NULL, NULL, (int64_t)cells};
    own.t = own.w + cells;
    own.end = (int64_t *)(own.t + cells);
    own.pixel = (int32_t *)(own.end + depth + 1);
    own.end[0] = 0;
    const records_t *from = rec != NULL ? rec : &own;
    /* Pixel-centre offsets from the tile corner: exact, so corner + offset is
     * bit for bit the ``x + 0.5`` of the walk. */
    for (int64_t p = 0; p < pixels; p++) {
        off_x[p] = (double)(p % ts) + 0.5;
        off_y[p] = (double)(p / ts) + 0.5;
    }

    for (int64_t i = 0; i < num_tiles; i++) {
        const int64_t t_id = tile_ids[i], start = offsets[i];
        const int64_t n = offsets[i + 1] - start;
        const tile_t tile = tile_at(t_id, tiles_x, ts, width, height);
        const double *g = g_tiles + t_id * pixels * 3;
        const int64_t *end = own.end;
        const double *t_final = T;
        if (rec != NULL) {
            end = rec->end + start;
            t_final = rec->t_final + i * pixels;
        } else {
            int64_t nrec = 0;  /* room for every cell: this cannot fail */
            (void)walk_tile(order, start, start + n, splats, colors, tile, ts,
                            tau, t_min, max_alpha, T, NULL, &own, &nrec);
        }
        for (int64_t p = 0; p < pixels; p++)
            suffix[p] = t_final[p] * (g[3 * p] * bg[0] + g[3 * p + 1] * bg[1] +
                                      g[3 * p + 2] * bg[2]);

        for (int64_t k = n - 1; k >= 0; k--) {
            const int64_t row = order[start + k];
            const double a = ca[row], b = cb[row], c = cc[row];
            const double o = opac[row], mean_x = mx[row], mean_y = my[row];
            const double c0 = colors[3 * row], c1 = colors[3 * row + 1],
                         c2 = colors[3 * row + 2];
            double dc0 = 0.0, dc1 = 0.0, dc2 = 0.0, d_o = 0.0;
            double dmx = 0.0, dmy = 0.0, daa = 0.0, dab = 0.0, dcc = 0.0;
            for (int64_t r = end[k]; r < end[k + 1]; r++) {
                const int64_t p = from->pixel[r];
                const double w = from->w[r], t = from->t[r];
                const double g0 = g[3 * p], g1 = g[3 * p + 1],
                             g2 = g[3 * p + 2];
                const double alpha_raw = o * w;
                const double cg = c0 * g0 + c1 * g1 + c2 * g2;
                const int active = t > t_min;
                if (alpha_raw < max_alpha) {
                    double d_alpha = -(suffix[p] / (1.0 - alpha_raw));
                    if (active)
                        d_alpha += t * cg;
                    const double d_power = d_alpha * alpha_raw;
                    const double dx = ((double)tile.x0 + off_x[p]) - mean_x;
                    const double dy = ((double)tile.y0 + off_y[p]) - mean_y;
                    d_o += w * d_alpha;
                    dmx += d_power * (a * dx + b * dy);
                    dmy += d_power * (b * dx + c * dy);
                    daa += -0.5 * d_power * dx * dx;
                    dab += -0.5 * d_power * dx * dy;
                    dcc += -0.5 * d_power * dy * dy;
                }
                if (active) {
                    const double blend =
                        (alpha_raw < max_alpha ? alpha_raw : max_alpha) * t;
                    suffix[p] += blend * cg;
                    dc0 += blend * g0;
                    dc1 += blend * g1;
                    dc2 += blend * g2;
                }
            }
            d_colors[3 * row] += dc0;
            d_colors[3 * row + 1] += dc1;
            d_colors[3 * row + 2] += dc2;
            d_opac[row] += d_o;
            d_means[2 * row] += dmx;
            d_means[2 * row + 1] += dmy;
            d_conics[4 * row] += daa;
            d_conics[4 * row + 1] += dab;
            d_conics[4 * row + 2] += dab;
            d_conics[4 * row + 3] += dcc;
        }
    }
    free(splats);
    free(scratch);
    return STATUS_OK;
}

/* ======================================================================
 * Whole-view ops: projection, binning and the gradient chain around the
 * two compositing kernels above, so that a render is two calls
 * (view_project, view_composite) and a backward pass one (view_backward).
 *
 * Every per-Gaussian field of a render lives in one float64 block laid out
 * field after field: field F of row r starts at block[F_F * cap + W_F * r],
 * cap being the rows the block was sized for (the generated header's offsets
 * and widths, from native_backend._FIELDS).  view_project writes the
 * survivors, compacted, into a scratch block sized for every input row (plus
 * the raster kernels' separate-array operands, which nothing retains, up to
 * F_SCRATCH); view_composite copies the fields up to F_RETAINED into the
 * block sized for the survivors that the render keeps, and the Python side
 * cuts ProjectedGaussians / GaussianShape views out of it.
 *
 * The arithmetic is that of rasterizer.preprocess / build_tile_bins and
 * rasterizer_grad._chain_to_parameters, operation for operation where a
 * rounding decides something discrete (tile spans, radii, footprints); what
 * NumPy sums through BLAS (3x3 products, the SH contraction) is summed here
 * in index order, so values agree to a few ulps, not bit for bit.  The
 * 3-sigma frustum test is in_frustum() below: the one arbiter that the culls
 * (exact_cull, and grid_cull on a grid's boundary members) and the render
 * (view_project) all call, row by row.
 * ====================================================================== */

/* Integer workspace of a forward pass: a header (survivors, binned rows,
 * non-empty tiles, entries, and the summed area of the binned rows' clipped
 * footprint rectangles: the compute tiles partition each, so no more cells
 * than that can pass), the survivors' input rows, the binned rows near-to-far
 * and the merge sort's other half, one compute-tile rectangle per survivor,
 * per-tile counts (then fill cursors), the clamp mask. */
typedef struct {
    int64_t *head, *ids, *rows, *tmp, *rects, *per_tile;
    uint8_t *clamp;
} work_t;

static work_t work_of(int64_t *iw, int64_t n, int64_t tiles)
{
    work_t w;
    w.head = iw;
    w.ids = iw + 5;
    w.rows = w.ids + n;
    w.tmp = w.rows + n;
    w.rects = w.tmp + n;
    w.per_tile = w.rects + 4 * n;
    w.clamp = (uint8_t *)(w.per_tile + tiles);
    return w;
}

static inline int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

/* Where image pixel (x, y) sits in a tile-major (tiles, sub * sub) canvas. */
static inline int64_t tile_major(int64_t x, int64_t y, int64_t sub, int64_t tiles_x)
{
    return ((y / sub) * tiles_x + x / sub) * sub * sub + (y % sub) * sub + x % sub;
}

/* sh.eval_basis: the real SH basis up to ``degree`` at a unit direction. */
static void sh_basis(double x, double y, double z, int64_t degree, double *b)
{
    const double xx = x * x, yy = y * y, zz = z * z;
    b[0] = SH_C0;
    if (degree >= 1) {
        b[1] = -SH_C1 * y;
        b[2] = SH_C1 * z;
        b[3] = -SH_C1 * x;
    }
    if (degree >= 2) {
        b[4] = SH_C2[0] * x * y;
        b[5] = SH_C2[1] * y * z;
        b[6] = SH_C2[2] * (2 * zz - xx - yy);
        b[7] = SH_C2[3] * x * z;
        b[8] = SH_C2[4] * (xx - yy);
    }
    if (degree >= 3) {
        b[9] = SH_C3[0] * y * (3 * xx - yy);
        b[10] = SH_C3[1] * x * y * z;
        b[11] = SH_C3[2] * y * (4 * zz - xx - yy);
        b[12] = SH_C3[3] * z * (2 * zz - 3 * xx - 3 * yy);
        b[13] = SH_C3[4] * x * (4 * zz - xx - yy);
        b[14] = SH_C3[5] * z * (xx - yy);
        b[15] = SH_C3[6] * x * (xx - 3 * yy);
    }
}

/* sh.eval_basis_jacobian: d basis / d direction, (K, 3); row 0 is zero. */
static void sh_basis_jacobian(
    double x, double y, double z, int64_t degree, double (*j)[3])
{
    const double xx = x * x, yy = y * y, zz = z * z;
#define ROW(k, c, a0, a1, a2) \
    (j[k][0] = (c) * (a0), j[k][1] = (c) * (a1), j[k][2] = (c) * (a2))
    ROW(0, 0.0, 0.0, 0.0, 0.0);
    if (degree >= 1) {
        ROW(1, 1.0, 0.0, -SH_C1, 0.0);
        ROW(2, 1.0, 0.0, 0.0, SH_C1);
        ROW(3, 1.0, -SH_C1, 0.0, 0.0);
    }
    if (degree >= 2) {
        ROW(4, SH_C2[0], y, x, 0.0);
        ROW(5, SH_C2[1], 0.0, z, y);
        ROW(6, SH_C2[2], -2 * x, -2 * y, 4 * z);
        ROW(7, SH_C2[3], z, 0.0, x);
        ROW(8, SH_C2[4], 2 * x, -2 * y, 0.0);
    }
    if (degree >= 3) {
        ROW(9, SH_C3[0], 6 * x * y, 3 * xx - 3 * yy, 0.0);
        ROW(10, SH_C3[1], y * z, x * z, x * y);
        ROW(11, SH_C3[2], -2 * x * y, 4 * zz - xx - 3 * yy, 8 * y * z);
        ROW(12, SH_C3[3], -6 * x * z, -6 * y * z, 6 * zz - 3 * xx - 3 * yy);
        ROW(13, SH_C3[4], 4 * zz - 3 * xx - yy, -2 * x * y, 8 * x * z);
        ROW(14, SH_C3[5], 2 * x * z, -2 * y * z, xx - yy);
        ROW(15, SH_C3[6], 3 * xx - 3 * yy, -6 * x * y, 0.0);
    }
#undef ROW
}

/* (unit, norm) of a ``dim``-vector, the norm clamped at 1e-12 as
 * quaternion.unit_and_norm clamps it (a NaN norm stays NaN). */
static double unit_and_norm(const double *v, int dim, double *unit)
{
    double sum = 0.0;
    for (int k = 0; k < dim; k++)
        sum += v[k] * v[k];
    double norm = sqrt(sum);
    if (norm < 1e-12)
        norm = 1e-12;
    for (int k = 0; k < dim; k++)
        unit[k] = v[k] / norm;
    return norm;
}

/* quaternion.to_rotation_matrices: row-major R of a unit (w, x, y, z). */
static void rotation_matrix(const double *q, double *rot)
{
    const double qw = q[0], qx = q[1], qy = q[2], qz = q[3];
    rot[0] = 1 - 2 * (qy * qy + qz * qz);
    rot[1] = 2 * (qx * qy - qw * qz);
    rot[2] = 2 * (qx * qz + qw * qy);
    rot[3] = 2 * (qx * qy + qw * qz);
    rot[4] = 1 - 2 * (qx * qx + qz * qz);
    rot[5] = 2 * (qy * qz - qw * qx);
    rot[6] = 2 * (qx * qz - qw * qy);
    rot[7] = 2 * (qy * qz + qw * qx);
    rot[8] = 1 - 2 * (qx * qx + qy * qy);
}

/* frustum.ellipsoids_in_frustum for one row: does the 3-sigma ellipsoid of
 * the Gaussian at ``p`` (log-scales ``ls``, raw quaternion ``q``) reach inside
 * all six ``planes`` (6 x 4 rows (n, d), n . p + d >= 0 inside)?  Writes the
 * activated scales exp(ls) to ``s`` either way.
 *
 * The one arbiter of this backend: exact_cull and view_project both call it
 * on the same bits, so what the cull accepted the render accepts.  Signed
 * distances are summed in program order ((nx px + ny py) + nz pz) + d.  Accept
 * path: the reach 3 |diag(s) R^T n| is never negative, so a centre inside all
 * six planes is in whatever its shape — unless a scale or the quaternion is
 * not finite: then the reach may be NaN on some plane (0 * inf), the full test
 * rejects that, and so every plane is evaluated.  For a finite row the reach
 * is in [0, inf] and a plane the centre is inside of cannot fail. */
static bool in_frustum(
    const double *planes, const double *p, const double *ls, const double *q,
    double *s)
{
    double dist[6];
    int centre_inside = 1;
    for (int k = 0; k < 6; k++) {
        const double *pl = planes + 4 * k;
        dist[k] = pl[0] * p[0] + pl[1] * p[1] + pl[2] * p[2] + pl[3];
        centre_inside &= dist[k] >= 0.0;
    }
    for (int k = 0; k < 3; k++)
        s[k] = exp(ls[k]);
    const int finite =
        isfinite(s[0] + s[1] + s[2] + (q[0] + q[1] + q[2] + q[3]));
    if (centre_inside && finite)
        return true;

    double unit[4], rot[9];
    unit_and_norm(q, 4, unit);
    rotation_matrix(unit, rot);
    for (int k = 0; k < 6; k++) {
        if (finite && dist[k] >= 0.0)
            continue;
        const double *n = planes + 4 * k;
        double sum = 0.0;
        for (int i = 0; i < 3; i++) {
            /* v_i = (R^T n)_i s_i */
            const double v =
                (rot[i] * n[0] + rot[3 + i] * n[1] + rot[6 + i] * n[2]) * s[i];
            sum += v * v;
        }
        if (!(dist[k] + 3.0 * sqrt(sum) >= 0.0))
            return false;
    }
    return true;
}

/* frustum.exact_cull: the members of rows[0 .. count) whose ellipsoid reaches
 * inside all six planes, in order, as kept[1 .. 1 + kept[0]).  The three
 * arrays are walked in place: row r of each starts ``stride`` doubles after
 * row r - 1 (3 / 3 / 4 for separate arrays, 10 for the views of one packed
 * (n, 10) block), its values adjacent.  Returns STATUS_OUT_OF_RANGE — before
 * reading anything of that row — when a row is outside [0, n). */
int exact_cull(
    int64_t n, const double *planes, const double *positions, int64_t p_stride,
    const double *log_scales, int64_t s_stride, const double *quats,
    int64_t q_stride, const int64_t *rows, int64_t count, int64_t *kept)
{
    int64_t m = 0;
    for (int64_t k = 0; k < count; k++) {
        const int64_t r = rows[k];
        double s[3];
        if (r < 0 || r >= n)
            return STATUS_OUT_OF_RANGE;
        if (in_frustum(planes, positions + r * p_stride,
                       log_scales + r * s_stride, quats + r * q_stride, s))
            kept[++m] = r;
    }
    kept[0] = m;
    return STATUS_OK;
}

/* NumPy's maximum / minimum: NaN when either operand is NaN. */
static inline double nan_max(double a, double b) { return a > b || a != a ? a : b; }
static inline double nan_min(double a, double b) { return a < b || a != a ? a : b; }

/* A culling grid's slot (spatial.CullingGrid.block): row r's position,
 * log-scales and raw quaternion, read with their row strides, then its
 * reach bound: frustum.max_support_radius (3 exp of the largest log-scale,
 * NaN-propagating as np.maximum) inflated by PREFILTER_MARGIN, which covers
 * both the ulps by which in_frustum()'s reach can pass 3 exp(max) and the
 * ulp by which libm's exp can pass NumPy's. */
static void fill_slot(
    double *slot, const double *p, const double *ls, const double *q)
{
    for (int k = 0; k < 3; k++) {
        slot[k] = p[k];
        slot[3 + k] = ls[k];
    }
    for (int k = 0; k < 4; k++)
        slot[6 + k] = q[k];
    slot[10] = 3.0 * exp(nan_max(nan_max(ls[0], ls[1]), ls[2]))
        * (1.0 + PREFILTER_MARGIN);
}

/* How far ahead grid_build and grid_refit prefetch the scattered rows they
 * read: the walk is otherwise bound by one cache miss after another. */
#define PREFETCH 16

static inline void prefetch_row(
    int64_t r, const double *positions, int64_t p_stride,
    const double *log_scales, int64_t s_stride, const double *quats,
    int64_t q_stride, const int64_t *slots)
{
    __builtin_prefetch(positions + r * p_stride);
    __builtin_prefetch(log_scales + r * s_stride);
    __builtin_prefetch(quats + r * q_stride + 3);
    __builtin_prefetch(slots + r);
}

/* Whether a slot may take in_frustum()'s accept path: its reach bound and
 * raw quaternion are finite (spatial's cell_finite, per member). */
static bool slot_finite(const double *slot)
{
    return isfinite(slot[10]) && isfinite(slot[6]) && isfinite(slot[7])
        && isfinite(slot[8]) && isfinite(slot[9]);
}

/* spatial.CullingGrid._build as a counting sort.  Rows with a finite centre
 * are binned at floor((p - origin) / size) with origin the least finite
 * centre and size max(extent / per_axis, 1e-9), extent the largest axis of
 * the finite centres' AABB (frame = origin, size); cells are the non-empty
 * bins in lexicographic (i, j, k) order, members in row order within each
 * (members[offsets[c] .. offsets[c+1])), and the rows with a non-finite
 * centre follow in one extra cell whose bounds are NaN, so every query
 * walks it.  Per cell: the AABB of the centres (cell_lo, cell_hi), the
 * largest reach bound and whether every member is slot_finite(); per row
 * its slot (slots[r]: members[slots[r]] == r) and the slot's 11 doubles in
 * block.  head = (cells, regular cells).  Returns STATUS_OUT_OF_RANGE unless
 * 1 <= per_axis < 2^20, STATUS_NO_MEMORY when the bin counts cannot be
 * allocated and STATUS_TABLES_SHORT when more than ``cap`` cells are
 * non-empty. */
int grid_build(
    int64_t n, const double *positions, int64_t p_stride,
    const double *log_scales, int64_t s_stride, const double *quats,
    int64_t q_stride, int64_t per_axis, int64_t cap, double *frame,
    int64_t *head, int64_t *members, int64_t *offsets, int64_t *slots,
    double *cell_lo, double *cell_hi, double *cell_radius,
    uint8_t *cell_finite, double *block)
{
    double lo[3] = {INFINITY, INFINITY, INFINITY};
    double hi[3] = {-INFINITY, -INFINITY, -INFINITY};
    int64_t finite = 0;
    if (per_axis < 1 || per_axis >= (int64_t)1 << 20)
        return STATUS_OUT_OF_RANGE;
    for (int64_t r = 0; r < n; r++) {
        const double *p = positions + r * p_stride;
        if (!(isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2])))
            continue;
        finite++;
        for (int k = 0; k < 3; k++) {
            lo[k] = p[k] < lo[k] ? p[k] : lo[k];
            hi[k] = p[k] > hi[k] ? p[k] : hi[k];
        }
    }
    double size = 1.0;
    if (finite) {
        double extent = hi[0] - lo[0];
        for (int k = 1; k < 3; k++)
            extent = hi[k] - lo[k] > extent ? hi[k] - lo[k] : extent;
        size = extent / (double)per_axis;
        if (size < 1e-9)
            size = 1e-9;
    } else {
        lo[0] = lo[1] = lo[2] = 0.0;
    }
    for (int k = 0; k < 3; k++)
        frame[k] = lo[k];
    frame[3] = size;

    /* Each row's bin coordinates, packed 21 bits an axis into slots[r] (-1
     * off the grid), and the extents of the bins. */
    int64_t dims[3] = {1, 1, 1};
    for (int64_t r = 0; r < n; r++) {
        const double *p = positions + r * p_stride;
        slots[r] = -1;
        if (!(isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2])))
            continue;
        int64_t packed = 0;
        for (int k = 0; k < 3; k++) {
            const int64_t at = (int64_t)floor((p[k] - lo[k]) / size);
            dims[k] = at + 1 > dims[k] ? at + 1 : dims[k];
            packed = packed << 21 | at;
        }
        slots[r] = packed;
    }
    const int64_t bins = dims[0] * dims[1] * dims[2];
    int64_t *start = calloc((size_t)bins, sizeof *start);
    if (!start)
        return STATUS_NO_MEMORY;
    /* Each row's linear bin id replaces its coordinates. */
    const int64_t mask = ((int64_t)1 << 21) - 1;
    for (int64_t r = 0; r < n; r++) {
        const int64_t packed = slots[r];
        if (packed < 0)
            continue;
        const int64_t id = ((packed >> 42) * dims[1] + (packed >> 21 & mask))
            * dims[2] + (packed & mask);
        slots[r] = id;
        start[id]++;
    }
    /* The non-empty bins, in id order, become the cells; start[] turns from
     * counts into each bin's fill cursor. */
    int64_t cells = 0, at = 0;
    for (int64_t id = 0; id < bins; id++) {
        const int64_t count = start[id];
        if (!count)
            continue;
        if (cells == cap) {
            free(start);
            return STATUS_TABLES_SHORT;
        }
        offsets[cells++] = at;
        start[id] = at;
        at += count;
    }
    const int64_t regular = cells;
    if (finite < n) {
        if (cells == cap) {
            free(start);
            return STATUS_TABLES_SHORT;
        }
        offsets[cells++] = finite;
    }
    offsets[cells] = n;
    /* Rows in order: stable, so members are sorted within each cell. */
    int64_t loose = finite;
    for (int64_t r = 0; r < n; r++)
        members[slots[r] < 0 ? loose++ : start[slots[r]]++] = r;
    free(start);

    /* Slot by slot (the block's writes sequential), cell by cell.  The rows
     * read are scattered, so each is prefetched PREFETCH slots ahead. */
    for (int64_t c = 0; c < cells; c++) {
        double *clo = cell_lo + 3 * c, *chi = cell_hi + 3 * c;
        int all_finite = 1;
        for (int k = 0; k < 3; k++)
            clo[k] = chi[k] = NAN;
        cell_radius[c] = NAN;
        for (int64_t i = offsets[c]; i < offsets[c + 1]; i++) {
            const int64_t r = members[i];
            double *slot = block + 11 * i;
            if (i + PREFETCH < n)
                prefetch_row(members[i + PREFETCH], positions, p_stride,
                             log_scales, s_stride, quats, q_stride, slots);
            slots[r] = i;
            fill_slot(slot, positions + r * p_stride, log_scales + r * s_stride,
                      quats + r * q_stride);
            all_finite &= slot_finite(slot);
            if (c >= regular)
                continue;
            const int first = i == offsets[c];
            for (int k = 0; k < 3; k++) {
                clo[k] = first ? slot[k] : nan_min(clo[k], slot[k]);
                chi[k] = first ? slot[k] : nan_max(chi[k], slot[k]);
            }
            cell_radius[c] = first ? slot[10] : nan_max(cell_radius[c], slot[10]);
        }
        cell_finite[c] = (uint8_t)(all_finite && c < regular);
    }
    head[0] = cells;
    head[1] = regular;
    return STATUS_OK;
}

/* spatial.CullingGrid.refit: rows[0 .. count) have moved.  Each one's slot
 * is refilled from the arrays and its cell (the last c with offsets[c] <=
 * slot) grows to take it: the AABB and the reach bound only widen
 * (NaN-propagating, as np.minimum.at / np.maximum.at), and a member that is
 * not slot_finite() or has a non-finite centre clears cell_finite.  Every
 * cell's bounds then still hold its members, so a query stays exact.  Sets
 * *bloated when a regular cell it widened is more than ``limit`` across on
 * some axis (or not finite).  Returns STATUS_OUT_OF_RANGE — before writing
 * anything — when a row is outside [0, n). */
int grid_refit(
    int64_t n, const double *positions, int64_t p_stride,
    const double *log_scales, int64_t s_stride, const double *quats,
    int64_t q_stride, const int64_t *rows, int64_t count,
    const int64_t *slots, int64_t cells, int64_t regular,
    const int64_t *offsets, double limit, double *cell_lo, double *cell_hi,
    double *cell_radius, uint8_t *cell_finite, double *block,
    int64_t *bloated)
{
    for (int64_t k = 0; k < count; k++)
        if (rows[k] < 0 || rows[k] >= n)
            return STATUS_OUT_OF_RANGE;
    for (int64_t k = 0; k < count; k++) {
        const int64_t r = rows[k], slot = slots[r];
        double *b = block + 11 * slot;
        if (k + PREFETCH < count) {
            prefetch_row(rows[k + PREFETCH], positions, p_stride, log_scales,
                         s_stride, quats, q_stride, slots);
            const int64_t ahead = slots[rows[k + PREFETCH / 2]];
            __builtin_prefetch(block + 11 * ahead, 1);
            __builtin_prefetch(block + 11 * ahead + 10, 1);
        }
        fill_slot(b, positions + r * p_stride, log_scales + r * s_stride,
                  quats + r * q_stride);
        int64_t c = 0, past = cells;  /* offsets[c] <= slot < offsets[past] */
        while (past - c > 1) {
            const int64_t mid = c + (past - c) / 2;
            if (offsets[mid] <= slot)
                c = mid;
            else
                past = mid;
        }
        double *clo = cell_lo + 3 * c, *chi = cell_hi + 3 * c;
        int centred = 1;
        for (int i = 0; i < 3; i++) {
            clo[i] = nan_min(clo[i], b[i]);
            chi[i] = nan_max(chi[i], b[i]);
            centred &= isfinite(b[i]);
        }
        cell_radius[c] = nan_max(cell_radius[c], b[10]);
        if (!(centred && slot_finite(b)))
            cell_finite[c] = 0;
        if (c < regular)
            for (int i = 0; i < 3; i++)
                if (!(chi[i] - clo[i] <= limit))
                    *bloated = 1;
    }
    return STATUS_OK;
}

/* grid_cull's walk of a boundary cell of two or more members, slots
 * [first, last): a member whose own sphere — its centre distance, summed as
 * in_frustum() sums it, plus its reach bound — is below some plane is
 * rejected, as in_frustum() would reject it; the others go to in_frustum().
 * Kept rows go to kept[m ..) while m < cap.  Returns the new m, or -1 at a
 * member outside [0, n).  (A function of its own: inline in the cell loop
 * it slowed the one-member cells a served view walks by ~10%.) */
static int64_t walk_spheres(
    const double *view, const int64_t *members, const double *rows,
    int64_t first, int64_t last, int64_t n, int64_t *kept, int64_t m,
    int64_t cap)
{
    for (int64_t i = first; i < last; i++) {
        const int64_t r = members[i];
        const double *row = rows + 11 * i;
        double s[3];
        int below = 0;
        if (r < 0 || r >= n)
            return -1;
        for (int k = 0; k < 6 && !below; k++) {
            const double *pl = view + 4 * k;
            below = pl[0] * row[0] + pl[1] * row[1] + pl[2] * row[2] + pl[3]
                + row[10] < 0.0;
        }
        if (below || !in_frustum(view, row, row + 3, row + 6, s))
            continue;
        if (m < cap)
            kept[m] = r;
        m++;
    }
    return m;
}

/* spatial.CullingGrid's query for ``views`` views at once (planes: views x
 * 6 x 4) over the grid's flat cells: cell c holds the slots [offsets[c],
 * offsets[c+1]), slot i is row members[i] and its 11 doubles are at
 * rows + 11 i (fill_slot(): a copy in slot order, so a cell's rows are
 * adjacent in memory).  Per view and cell, as spatial.CullingGrid._classify:
 * *outside* when some plane is farther than the reach bound below the
 * AABB's farthest corner (no member read), *inside* when the AABB's nearest
 * corner is inside all six planes and cell_finite[c] says every member may
 * take in_frustum()'s accept path (every member taken), else *boundary*:
 * each member goes to in_frustum(), after its own sphere's test when the
 * cell holds two or more (walk_spheres(); in a one-member cell the cell
 * test was that test).  View v's
 * rows go to kept[] after view v - 1's, cell by cell, so sorted within a
 * cell only, and their number to counts[v]; past ``cap`` rows are counted
 * and not written, and the call returns STATUS_ARENA_SHORT.  Every row is
 * a member, so there are n slots.  Returns STATUS_OUT_OF_RANGE — before
 * reading a slot — when an offset is outside [0, n] or below its
 * predecessor, or a member is outside [0, n). */
int grid_cull(
    int64_t n, const double *planes, int64_t views, int64_t cells,
    const double *cell_lo, const double *cell_hi, const double *cell_radius,
    const uint8_t *cell_finite, const int64_t *offsets, const int64_t *members,
    const double *rows, int64_t *counts, int64_t *kept, int64_t cap)
{
    int64_t m = 0;
    for (int64_t v = 0; v < views; v++) {
        const double *view = planes + 24 * v;
        const int64_t before = m;
        /* Per plane and axis, the bound the AABB's farthest corner takes (hi
         * where the normal's component is >= 0) and the one its nearest
         * takes. */
        const double *far[6][3], *near[6][3];
        for (int k = 0; k < 6; k++)
            for (int i = 0; i < 3; i++) {
                const int up = view[4 * k + i] >= 0.0;
                far[k][i] = (up ? cell_hi : cell_lo) + i;
                near[k][i] = (up ? cell_lo : cell_hi) + i;
            }
        for (int64_t c = 0; c < cells; c++) {
            const int64_t first = offsets[c], last = offsets[c + 1], at = 3 * c;
            if (first < 0 || last < first || last > n)
                return STATUS_OUT_OF_RANGE;
            int outside = 0, inside = cell_finite[c] != 0;
            for (int k = 0; k < 6 && !outside; k++) {
                /* Summed as in_frustum() sums a centre's distance: rounding
                 * is monotone, so every member's distance lies between the
                 * two corners'. */
                const double *pl = view + 4 * k;
                outside = pl[0] * far[k][0][at] + pl[1] * far[k][1][at]
                    + pl[2] * far[k][2][at] + pl[3] + cell_radius[c] < 0.0;
                inside &= pl[0] * near[k][0][at] + pl[1] * near[k][1][at]
                    + pl[2] * near[k][2][at] + pl[3] >= 0.0;
            }
            if (outside)
                continue;
            if (!inside && last - first > 1) {
                m = walk_spheres(view, members, rows, first, last, n, kept, m, cap);
                if (m < 0)
                    return STATUS_OUT_OF_RANGE;
                continue;
            }
            for (int64_t i = first; i < last; i++) {
                const int64_t r = members[i];
                const double *row = rows + 11 * i;
                double s[3];
                if (r < 0 || r >= n)
                    return STATUS_OUT_OF_RANGE;
                if (inside || in_frustum(view, row, row + 3, row + 6, s)) {
                    if (m < cap)
                        kept[m] = r;
                    m++;
                }
            }
        }
        counts[v] = m - before;
    }
    return m > cap ? STATUS_ARENA_SHORT : STATUS_OK;
}

/* quaternion.backprop_unit: through unit = v / |v|. */
static void backprop_unit(
    const double *d_unit, const double *unit, double norm, int dim, double *out)
{
    double inner = 0.0;
    for (int k = 0; k < dim; k++)
        inner += d_unit[k] * unit[k];
    for (int k = 0; k < dim; k++)
        out[k] = (d_unit[k] - unit[k] * inner) / norm;
}

/* The four non-constant entries of covariance.perspective_jacobian:
 * J = [[j00, 0, j02], [0, j11, j12]]. */
typedef struct {
    double j00, j02, j11, j12, inv_z, inv_z2;
} jac_t;

static jac_t perspective_jacobian(const double *t, double fx, double fy)
{
    jac_t j;
    j.inv_z = 1.0 / t[2];
    j.inv_z2 = j.inv_z * j.inv_z;
    j.j00 = fx * j.inv_z;
    j.j02 = -fx * t[0] * j.inv_z2;
    j.j11 = fy * j.inv_z;
    j.j12 = -fy * t[1] * j.inv_z2;
    return j;
}

/* c = a b for row-major 3x3 matrices, each element summed in index order;
 * ``ta`` / ``tb`` read a / b transposed. */
static void mat3(const double *a, int ta, const double *b, int tb, double *c)
{
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++) {
            double sum = 0.0;
            for (int k = 0; k < 3; k++)
                sum += (ta ? a[3 * k + i] : a[3 * i + k]) *
                       (tb ? b[3 * j + k] : b[3 * k + j]);
            c[3 * i + j] = sum;
        }
}

/* NumPy's float floor_divide (npy_divmod), then its int64 cast and the clip
 * to [0, last] of rasterizer._tile_spans: a coordinate on a tile edge lands
 * in the tile NumPy puts it in for any tile size, 12 and 20 included. */
static int64_t tile_of(double coord, double ts, int64_t last)
{
    const double mod = fmod(coord, ts);
    double div = (coord - mod) / ts;
    if (mod < 0.0)
        div -= 1.0;
    double tile = floor(div);
    if (div - tile > 0.5)
        tile += 1.0;
    if (!(tile > 0.0))  /* also what the cast makes of a NaN or -inf */
        return 0;
    if (!isfinite(tile))
        return 0;
    return tile > (double)last ? last : (int64_t)tile;
}

/* Whether every rows[k] lies in [0, n). */
static bool in_range(const int64_t *rows, int64_t count, int64_t n)
{
    for (int64_t k = 0; k < count; k++)
        if (rows[k] < 0 || rows[k] >= n)
            return false;
    return true;
}

/* Stable merge sort of ``rows`` by depth, ties by position; returns the
 * array (``rows`` or ``tmp``) that holds the result. */
static int64_t *sort_near_to_far(
    int64_t *rows, int64_t *tmp, int64_t n, const double *depths)
{
    for (int64_t run = 1; run < n; run *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * run) {
            const int64_t mid = min_i64(lo + run, n);
            const int64_t hi = min_i64(lo + 2 * run, n);
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = depths[rows[j]] < depths[rows[i]] ? rows[j++]
                                                             : rows[i++];
            while (i < mid)
                tmp[k++] = rows[i++];
            while (j < hi)
                tmp[k++] = rows[j++];
        }
        int64_t *swap = rows;
        rows = tmp;
        tmp = swap;
    }
    return rows;
}

/* rasterizer.preprocess for the rows in_frustum() lets through, then the
 * counting half of build_tile_bins over the survivors.  The n input rows are
 * rows[0 .. n) of the ``total``-row model arrays — a working set read in
 * place, as preprocess reads model.gather(rows) — or, when ``rows`` is NULL,
 * every row in order (n == total).  Survivor ids are positions among the n
 * input rows either way.  Writes the survivors' fields, compacted, into
 * ``f`` (F_SCRATCH * n doubles) and the workspace ``iw`` (see work_of;
 * 5 + 7 n + tiles int64 and 3 n bytes), whose header then says how large
 * the render's own blocks must be.  Returns STATUS_OUT_OF_RANGE, having
 * written nothing, when a row is outside [0, total). */
int view_project(
    int64_t n, const int64_t *rows, int64_t total, const double *positions,
    const double *log_scales, const double *quats, const double *sh,
    const double *logits, const double *planes, int64_t k_stored,
    int64_t degree, const double *params, int64_t width, int64_t height,
    int64_t ts, int64_t sub, double *f, int64_t *iw)
{
    if (rows != NULL && !in_range(rows, n, total))
        return STATUS_OUT_OF_RANGE;
    const double *w = params + P_ROTATION, *center = params + P_CENTER;
    const double fx = params[P_FX], fy = params[P_FY];
    const double cx = params[P_CX], cy = params[P_CY];
    const double znear = params[P_ZNEAR], tau = params[P_ALPHA_THRESHOLD];
    const int64_t tiles_x = ceil_div(width, sub), tiles_y = ceil_div(height, sub);
    const int64_t k_active = (degree + 1) * (degree + 1);
    const work_t work = work_of(iw, n, tiles_x * tiles_y);
/* Field ``name`` of the block, and of survivor m in it. */
#define FIELD(name) (f + F_##name * n)
#define ROW(name) (FIELD(name) + W_##name * m)
    double *means = FIELD(MEANS2D), *depths = FIELD(DEPTHS);
    double *mx = FIELD(MEANS_X), *my = FIELD(MEANS_Y);
    double *ca = FIELD(CONIC_A), *cb = FIELD(CONIC_B), *cc = FIELD(CONIC_C);
    double *opac = FIELD(OPACITIES), *radii = FIELD(RADII);

    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t row = rows != NULL ? rows[i] : i;
        double s[3], off[3], t[3];
        if (!in_frustum(planes, positions + 3 * row, log_scales + 3 * row,
                        quats + 4 * row, s))
            continue;
        for (int k = 0; k < 3; k++)
            off[k] = positions[3 * row + k] - center[k];
        for (int k = 0; k < 3; k++)
            t[k] = off[0] * w[3 * k] + off[1] * w[3 * k + 1] +
                   off[2] * w[3 * k + 2];
        if (!(t[2] > znear))
            continue;

        /* Sigma = M M^T with M = R diag(exp(log_scales)). */
        double q[4], rot[9], mm[9], cov[9], tmp[9], cov_cam[9];
        const double q_norm = unit_and_norm(quats + 4 * row, 4, q);
        rotation_matrix(q, rot);
        for (int k = 0; k < 9; k++)
            mm[k] = rot[k] * s[k % 3];
        mat3(mm, 0, mm, 1, cov);
        /* cov_cam = W Sigma W^T, cov2d = J cov_cam J^T + low-pass. */
        mat3(w, 0, cov, 0, tmp);
        mat3(tmp, 0, w, 1, cov_cam);
        const jac_t j = perspective_jacobian(t, fx, fy);
        double b0[3], b1[3];
        for (int k = 0; k < 3; k++) {
            b0[k] = j.j00 * cov_cam[k] + j.j02 * cov_cam[6 + k];
            b1[k] = j.j11 * cov_cam[3 + k] + j.j12 * cov_cam[6 + k];
        }
        const double a = b0[0] * j.j00 + b0[2] * j.j02 + 0.3;
        const double b = b0[1] * j.j11 + b0[2] * j.j12;
        const double b_t = b1[0] * j.j00 + b1[2] * j.j02;
        const double c = b1[1] * j.j11 + b1[2] * j.j12 + 0.3;
        const double det = a * c - b * b;
        if (!(det > 0.0))
            continue;
        /* projection.splat_radii: ceil(3 sqrt(lambda_max)). */
        const double mid = 0.5 * (a + c);
        double disc = mid * mid - det;
        disc = sqrt(disc < 0.0 ? 0.0 : disc);
        const double lambda = mid + disc;
        const double radius = ceil(3.0 * sqrt(lambda < 0.0 ? 0.0 : lambda));
        if (!(radius > 0.0))
            continue;
        const double safe_z = fabs(t[2]) > 1e-12 ? t[2] : 1e-12;
        const double u = fx * t[0] / safe_z + cx, v = fy * t[1] / safe_z + cy;
        if (!(u + radius > 0.0 && u - radius < (double)width &&
              v + radius > 0.0 && v - radius < (double)height))
            continue;

        /* A survivor: everything else is computed for these rows only. */
        work.ids[m] = i;
        means[2 * m] = mx[m] = u;
        means[2 * m + 1] = my[m] = v;
        depths[m] = t[2];
        radii[m] = radius;
        memcpy(ROW(T_CAM), t, sizeof t);
        memcpy(ROW(OFFSETS), off, sizeof off);
        memcpy(ROW(COV_CAM), cov_cam, sizeof cov_cam);
        double *cov2d = ROW(COV2D), *conic = ROW(CONICS);
        cov2d[0] = a;
        cov2d[1] = b;
        cov2d[2] = b_t;
        cov2d[3] = c;
        conic[0] = ca[m] = c / det;
        conic[1] = conic[2] = cb[m] = -b / det;
        conic[3] = cc[m] = a / det;
        memcpy(ROW(SCALES), s, sizeof s);
        *ROW(QUAT_NORMS) = q_norm;
        memcpy(ROW(UNIT_QUATS), q, sizeof q);
        memcpy(ROW(ROTATIONS), rot, sizeof rot);
        double *dir = ROW(DIRS);
        *ROW(DIR_NORMS) = unit_and_norm(off, 3, dir);

        /* sh.sh_to_color: basis . coefficients + 0.5, clamped at zero. */
        double basis[16];
        sh_basis(dir[0], dir[1], dir[2], degree, basis);
        const double *coeffs = sh + 3 * k_stored * row;
        for (int ch = 0; ch < 3; ch++) {
            double raw = 0.0;
            for (int64_t k = 0; k < k_active; k++)
                raw += basis[k] * coeffs[3 * k + ch];
            raw += 0.5;
            work.clamp[3 * m + ch] = raw < 0.0;
            ROW(COLORS)[ch] = raw < 0.0 ? 0.0 : raw;
        }
        /* model.sigmoid, the numerically stable form. */
        const double logit = logits[row];
        if (logit >= 0.0) {
            opac[m] = 1.0 / (1.0 + exp(-logit));
        } else {
            const double ex = exp(logit);
            opac[m] = ex / (1.0 + ex);
        }
        m++;
    }
#undef ROW
#undef FIELD

    /* rasterizer._compute_tile_rects: the semantic tile span of the 3-sigma
     * radius, clipped to the image and to the thresholded footprint (the same
     * footprint() the compositing loops clip by), in compute tiles. */
    const int64_t last_x = ceil_div(width, ts) - 1, last_y = ceil_div(height, ts) - 1;
    int64_t binned = 0, area = 0;
    for (int64_t r = 0; r < m; r++) {
        const double x = mx[r], y = my[r], rad = radii[r];
        const int64_t sx0 = tile_of(x - rad, (double)ts, last_x);
        const int64_t sx1 = tile_of(x + rad, (double)ts, last_x);
        const int64_t sy0 = tile_of(y - rad, (double)ts, last_y);
        const int64_t sy1 = tile_of(y + rad, (double)ts, last_y);
        const splat_t s = footprint(r, mx, my, ca, cb, cc, opac, tau);
        int64_t e[4];
        clip(&s, sx0 * ts, min_i64((sx1 + 1) * ts, width) - 1, sy0 * ts,
             min_i64((sy1 + 1) * ts, height) - 1, e);
        /* opacity < tau passes the threshold nowhere (exp(.) <= 1). */
        if ((tau > 0.0 && opac[r] < tau) || e[0] > e[1] || e[2] > e[3])
            continue;
        int64_t *rect = work.rects + 4 * r;
        for (int k = 0; k < 4; k++)
            rect[k] = e[k] / sub;
        work.rows[binned++] = r;
        area += (e[1] - e[0] + 1) * (e[3] - e[2] + 1);
    }
    const int64_t *sorted = sort_near_to_far(work.rows, work.tmp, binned, depths);
    if (sorted != work.rows)
        memcpy(work.rows, sorted, (size_t)binned * sizeof(int64_t));

    int64_t tiles = 0, entries = 0;
    memset(work.per_tile, 0, (size_t)(tiles_x * tiles_y) * sizeof(int64_t));
    for (int64_t k = 0; k < binned; k++) {
        const int64_t *rect = work.rects + 4 * work.rows[k];
        for (int64_t ty = rect[2]; ty <= rect[3]; ty++)
            for (int64_t tx = rect[0]; tx <= rect[1]; tx++)
                tiles += work.per_tile[ty * tiles_x + tx]++ == 0;
        entries += (rect[1] - rect[0] + 1) * (rect[3] - rect[2] + 1);
    }
    work.head[0] = m;
    work.head[1] = binned;
    work.head[2] = tiles;
    work.head[3] = entries;
    work.head[4] = area;
    return STATUS_OK;
}

/* The second forward call, once the render's own blocks exist: ``kept``
 * (F_RETAINED * m doubles), ``ikept`` (ids m | tile_ids T | offsets T + 1 |
 * order E) and ``clamp`` (3 * m bytes) receive the survivors' fields, the
 * filling half of build_tile_bins writes the CSR arrays, raster_forward()
 * runs over them and the tile-major canvases are cropped into ``image``
 * (H, W, 3) and ``trans`` (H, W).  Unless they are NULL, the blend records go to ``rec_f`` (the final
 * T of the T non-empty tiles, then exp values and T_before of at most
 * ``area`` = head[4] cells), ``rec_p`` (their pixels, ``area``) and
 * ``rec_end`` (E + 1), for view_backward.  Returns STATUS_NO_MEMORY when
 * the canvases or the survivors' footprints cannot be allocated,
 * STATUS_OUT_OF_RANGE when the counts are not view_project's and
 * STATUS_VIOLATED when more cells pass than ``area``. */
int view_composite(
    int64_t n, const double *f, int64_t *iw, const double *params,
    int64_t width, int64_t height, int64_t sub, double *kept, int64_t *ikept,
    uint8_t *clamp, double *rec_f, int32_t *rec_p, int64_t *rec_end,
    double *image, double *trans)
{
    static const int starts[] = {RETAINED_STARTS};  /* ..., F_RETAINED */
    const int64_t tiles_x = ceil_div(width, sub), tiles_y = ceil_div(height, sub);
    const int64_t num_tiles = tiles_x * tiles_y, pixels = sub * sub;
    const work_t work = work_of(iw, n, num_tiles);
    const int64_t m = work.head[0], binned = work.head[1];
    const int64_t tiles = work.head[2], entries = work.head[3];

    for (int k = 0; k + 1 < (int)(sizeof starts / sizeof *starts); k++)
        memcpy(kept + starts[k] * m, f + starts[k] * n,
               (size_t)((starts[k + 1] - starts[k]) * m) * sizeof(double));
    memcpy(ikept, work.ids, (size_t)m * sizeof(int64_t));
    memcpy(clamp, work.clamp, (size_t)(3 * m));

    /* Non-empty tiles ascending, their offsets, then the rows: walking the
     * binned rows near-to-far leaves every tile's list near-to-far. */
    int64_t *tile_ids = ikept + m, *offsets = tile_ids + tiles;
    int64_t *order = offsets + tiles + 1;
    int64_t found = 0, run = 0;
    for (int64_t t = 0; t < num_tiles; t++) {
        const int64_t count = work.per_tile[t];
        if (count == 0)
            continue;
        tile_ids[found] = t;
        offsets[found++] = run;
        work.per_tile[t] = run;  /* from here on: the tile's fill cursor */
        run += count;
    }
    offsets[found] = run;
    if (found != tiles || run != entries)
        return STATUS_OUT_OF_RANGE;
    for (int64_t k = 0; k < binned; k++) {
        const int64_t row = work.rows[k], *rect = work.rects + 4 * row;
        for (int64_t ty = rect[2]; ty <= rect[3]; ty++)
            for (int64_t tx = rect[0]; tx <= rect[1]; tx++)
                order[work.per_tile[ty * tiles_x + tx]++] = row;
    }

    const double *bg = params + P_BACKGROUND;
    double *canvas_rgb = malloc((size_t)(num_tiles * pixels) * 4 * sizeof(double));
    if (canvas_rgb == NULL)
        return STATUS_NO_MEMORY;
    double *canvas_t = canvas_rgb + 3 * num_tiles * pixels;
    for (int64_t p = 0; p < num_tiles * pixels; p++) {
        canvas_rgb[3 * p] = bg[0];
        canvas_rgb[3 * p + 1] = bg[1];
        canvas_rgb[3 * p + 2] = bg[2];
        canvas_t[p] = 1.0;
    }
    const int failed = raster_forward(
        tiles, offsets, order, tile_ids, tiles_x, sub, width, height, m,
        f + F_MEANS_X * n, f + F_MEANS_Y * n, f + F_CONIC_A * n,
        f + F_CONIC_B * n, f + F_CONIC_C * n, kept + F_OPACITIES * m,
        kept + F_COLORS * m, bg, params[P_ALPHA_THRESHOLD],
        params[P_TRANSMITTANCE_MIN], params[P_MAX_ALPHA], canvas_rgb, canvas_t,
        rec_f, rec_p, rec_end, work.head[4]);
    for (int64_t y = 0; y < height; y++)
        for (int64_t x = 0; x < width; x++) {
            const int64_t p = tile_major(x, y, sub, tiles_x);
            memcpy(image + 3 * (y * width + x), canvas_rgb + 3 * p,
                   3 * sizeof(double));
            trans[y * width + x] = canvas_t[p];
        }
    free(canvas_rgb);
    return failed;
}

/* rasterizer_grad._chain_to_parameters for survivor ``r``: the screen-space
 * gradients (colour 3, opacity, mean 2, conic 2x2) down to the parameters of
 * input row ids[r], written to that row of the five full-size arrays. */
static void view_chain(
    int64_t r, int64_t m, const double *kept, const int64_t *ids,
    const uint8_t *clamp, const double *sh, int64_t k_stored, int64_t degree,
    const double *params, const double *d_colors, const double *d_opac,
    const double *d_means, const double *d_conics, double *g_positions,
    double *g_log_scales, double *g_quats, double *g_sh, double *g_logits)
{
#define FIELD(name) (kept + F_##name * m + W_##name * r)
    const double *w = params + P_ROTATION;
    const double fx = params[P_FX], fy = params[P_FY];
    const double *t = FIELD(T_CAM), *cov_cam = FIELD(COV_CAM);
    const double *conic = FIELD(CONICS), *d_conic = d_conics + 4 * r;
    const int64_t id = ids[r];

    /* covariance.invert_cov2d_backward: -(conic d_conic conic), then its
     * symmetric part g. */
    double x[4], d_cov2d[4];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++)
            x[2 * i + j] = conic[2 * i] * d_conic[j] + conic[2 * i + 1] * d_conic[2 + j];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++)
            d_cov2d[2 * i + j] = -(x[2 * i] * conic[j] + x[2 * i + 1] * conic[2 + j]);
    const double g00 = d_cov2d[0], g11 = d_cov2d[3];
    const double g01 = 0.5 * (d_cov2d[1] + d_cov2d[2]);

    /* covariance.project_covariance_backward.  With J = [[j00, 0, j02],
     * [0, j11, j12]]: gj = g J, d_cov_cam = J^T gj, d_cov_world =
     * W^T d_cov_cam W, d_jac = 2 gj cov_cam. */
    const jac_t j = perspective_jacobian(t, fx, fy);
    const double gj[6] = {
        g00 * j.j00, g01 * j.j11, g00 * j.j02 + g01 * j.j12,
        g01 * j.j00, g11 * j.j11, g01 * j.j02 + g11 * j.j12};
    double d_cov_cam[9], tmp[9], d_cov[9], d_jac[6];
    for (int k = 0; k < 3; k++) {
        d_cov_cam[k] = j.j00 * gj[k];
        d_cov_cam[3 + k] = j.j11 * gj[3 + k];
        d_cov_cam[6 + k] = j.j02 * gj[k] + j.j12 * gj[3 + k];
    }
    mat3(w, 1, d_cov_cam, 0, tmp);
    mat3(tmp, 0, w, 0, d_cov);
    for (int i = 0; i < 2; i++)
        for (int k = 0; k < 3; k++)
            d_jac[3 * i + k] = 2.0 * (gj[3 * i] * cov_cam[k] +
                                      gj[3 * i + 1] * cov_cam[3 + k] +
                                      gj[3 * i + 2] * cov_cam[6 + k]);
    const double inv_z3 = j.inv_z2 * j.inv_z;
    double d_t[3];
    d_t[0] = d_jac[2] * (-fx * j.inv_z2);
    d_t[1] = d_jac[5] * (-fy * j.inv_z2);
    d_t[2] = d_jac[0] * (-fx * j.inv_z2) + d_jac[4] * (-fy * j.inv_z2) +
             d_jac[2] * (2 * fx * t[0] * inv_z3) +
             d_jac[5] * (2 * fy * t[1] * inv_z3);

    /* GaussianShape.covariance_backward: Sigma = M M^T, M = R diag(s). */
    const double *s = FIELD(SCALES), *rot = FIELD(ROTATIONS);
    const double *q = FIELD(UNIT_QUATS);
    double mm[9], sym[9], d_m[9], d_rot[9], d_scale[3] = {0.0, 0.0, 0.0};
    for (int k = 0; k < 9; k++) {
        mm[k] = rot[k] * s[k % 3];
        sym[k] = d_cov[k] + d_cov[3 * (k % 3) + k / 3];
    }
    mat3(sym, 0, mm, 0, d_m);
    for (int k = 0; k < 9; k++) {
        d_rot[k] = d_m[k] * s[k % 3];
        d_scale[k % 3] += rot[k] * d_m[k];
    }
    for (int k = 0; k < 3; k++)
        g_log_scales[3 * id + k] = d_scale[k] * s[k];
    /* quaternion.backprop_rotation in closed form (the contraction of d_rot
     * with quaternion.rotation_matrix_jacobian), then the normalisation. */
    const double qw = q[0], qx = q[1], qy = q[2], qz = q[3];
    const double *d = d_rot;
    const double d_unit[4] = {
        2 * (qz * (d[3] - d[1]) + qy * (d[2] - d[6]) + qx * (d[7] - d[5])),
        2 * (qy * (d[1] + d[3]) + qz * (d[2] + d[6]) + qw * (d[7] - d[5]) -
             2 * qx * (d[4] + d[8])),
        2 * (qx * (d[1] + d[3]) + qw * (d[2] - d[6]) + qz * (d[5] + d[7]) -
             2 * qy * (d[0] + d[8])),
        2 * (qw * (d[3] - d[1]) + qx * (d[2] + d[6]) + qy * (d[5] + d[7]) -
             2 * qz * (d[0] + d[4]))};
    backprop_unit(d_unit, q, *FIELD(QUAT_NORMS), 4, g_quats + 4 * id);

    /* projection.project_means_backward, plus the Jacobian's own dependence
     * on the camera point, rotated back to the world. */
    const double gu = d_means[2 * r], gv = d_means[2 * r + 1];
    d_t[0] += fx * j.inv_z * gu;
    d_t[1] += fy * j.inv_z * gv;
    d_t[2] += -fx * t[0] * j.inv_z2 * gu - fy * t[1] * j.inv_z2 * gv;
    double d_pos[3];
    for (int k = 0; k < 3; k++)
        d_pos[k] = d_t[0] * w[k] + d_t[1] * w[3 + k] + d_t[2] * w[6 + k];

    /* sh.sh_backward: coefficients of the active degree, and through the
     * basis Jacobian and the normalised view direction the position again. */
    const double *dir = FIELD(DIRS), *coeffs = sh + 3 * k_stored * id;
    const int64_t k_active = (degree + 1) * (degree + 1);
    double basis[16], jac[16][3], gated[3], d_dir[3] = {0.0, 0.0, 0.0};
    sh_basis(dir[0], dir[1], dir[2], degree, basis);
    sh_basis_jacobian(dir[0], dir[1], dir[2], degree, jac);
    for (int ch = 0; ch < 3; ch++)
        gated[ch] = clamp[3 * r + ch] ? 0.0 : d_colors[3 * r + ch];
    for (int64_t k = 0; k < k_active; k++) {
        double through = 0.0;
        for (int ch = 0; ch < 3; ch++) {
            g_sh[3 * (k_stored * id + k) + ch] = basis[k] * gated[ch];
            through += coeffs[3 * k + ch] * gated[ch];
        }
        for (int c = 0; c < 3; c++)
            d_dir[c] += through * jac[k][c];
    }
    double d_offset[3];
    backprop_unit(d_dir, dir, *FIELD(DIR_NORMS), 3, d_offset);
    for (int k = 0; k < 3; k++)
        g_positions[3 * id + k] = d_pos[k] + d_offset[k];

    const double o = *FIELD(OPACITIES);
    g_logits[id] = d_opac[r] * o * (1.0 - o);
#undef FIELD
}

/* The whole backward pass of a view_composite render: ``d_image`` (H, W, 3)
 * goes tile-major, raster_backward() turns it into screen-space gradients
 * (from the blend records view_composite kept, when ``rec_f`` is not NULL,
 * ``cap`` being the cells they have room for) and view_chain scatters those
 * to rows ids of the five zero-filled ``g_*`` arrays (n rows each).  Returns
 * STATUS_NO_MEMORY when scratch cannot be allocated, STATUS_OUT_OF_RANGE when
 * the blocks are not ones view_composite could have written. */
int view_backward(
    int64_t m, int64_t n, int64_t tiles, int64_t entries, int64_t cap,
    const double *kept, const int64_t *ikept, const uint8_t *clamp,
    const double *rec_f, const int32_t *rec_p, const int64_t *rec_end,
    const double *sh, int64_t k_stored, int64_t degree, const double *params,
    int64_t width, int64_t height, int64_t sub, const double *d_image,
    double *g_positions, double *g_log_scales, double *g_quats, double *g_sh,
    double *g_logits)
{
    const int64_t tiles_x = ceil_div(width, sub), tiles_y = ceil_div(height, sub);
    const int64_t num_tiles = tiles_x * tiles_y, pixels = sub * sub;
    const int64_t *ids = ikept, *tile_ids = ikept + m;
    const int64_t *offsets = tile_ids + tiles, *order = offsets + tiles + 1;
    for (int64_t r = 0; r < m; r++)
        if (ids[r] < 0 || ids[r] >= n)
            return STATUS_OUT_OF_RANGE;
    for (int64_t i = 0; i < tiles; i++)
        if (tile_ids[i] < 0 || tile_ids[i] >= num_tiles ||
            offsets[i] > offsets[i + 1])
            return STATUS_OUT_OF_RANGE;
    if (tiles > 0 && (offsets[0] != 0 || offsets[tiles] != entries))
        return STATUS_OUT_OF_RANGE;
    for (int64_t k = 0; k < entries; k++)
        if (order[k] < 0 || order[k] >= m)
            return STATUS_OUT_OF_RANGE;
    /* Record ends ascend from 0 and stay within ``cap``; pixels in a tile. */
    for (int64_t k = 0; rec_f != NULL && k <= entries; k++)
        if ((k == 0 ? rec_end[0] != 0 : rec_end[k] < rec_end[k - 1]) ||
            rec_end[k] > cap)
            return STATUS_OUT_OF_RANGE;
    for (int64_t r = 0; rec_f != NULL && r < rec_end[entries]; r++)
        if (rec_p[r] < 0 || rec_p[r] >= pixels)
            return STATUS_OUT_OF_RANGE;

    /* One zeroed block: the raster kernels' separate-array operands (5 m),
     * the screen-space gradients (10 m), the tile-major upstream gradient. */
    double *scratch =
        calloc((size_t)(15 * m + 3 * num_tiles * pixels) + 1, sizeof(double));
    if (scratch == NULL)
        return STATUS_NO_MEMORY;
    double *mx = scratch, *my = mx + m, *ca = my + m, *cb = ca + m, *cc = cb + m;
    double *d_colors = cc + m, *d_opac = d_colors + 3 * m;
    double *d_means = d_opac + m, *d_conics = d_means + 2 * m;
    double *g_tiles = d_conics + 4 * m;
    for (int64_t r = 0; r < m; r++) {
        mx[r] = kept[F_MEANS2D * m + 2 * r];
        my[r] = kept[F_MEANS2D * m + 2 * r + 1];
        ca[r] = kept[F_CONICS * m + 4 * r];
        cb[r] = kept[F_CONICS * m + 4 * r + 1];
        cc[r] = kept[F_CONICS * m + 4 * r + 3];
    }
    for (int64_t y = 0; y < height; y++)
        for (int64_t x = 0; x < width; x++) {
            const int64_t p = tile_major(x, y, sub, tiles_x);
            memcpy(g_tiles + 3 * p, d_image + 3 * (y * width + x),
                   3 * sizeof(double));
        }
    const int failed = raster_backward(
        tiles, offsets, order, tile_ids, tiles_x, sub, width, height, m, mx, my,
        ca, cb, cc, kept + F_OPACITIES * m, kept + F_COLORS * m,
        params + P_BACKGROUND, params[P_ALPHA_THRESHOLD],
        params[P_TRANSMITTANCE_MIN], params[P_MAX_ALPHA], g_tiles,
        d_colors, d_opac, d_means, d_conics, rec_f, rec_p, rec_end, cap);
    if (!failed)
        for (int64_t r = 0; r < m; r++)
            view_chain(r, m, kept, ids, clamp, sh, k_stored, degree, params,
                       d_colors, d_opac, d_means, d_conics, g_positions,
                       g_log_scales, g_quats, g_sh, g_logits);
    free(scratch);
    return failed;
}

/* ======================================================================
 * The data path: CLM's selective load, gradient offload and packed CPU Adam
 * (core/stores.py, optim/packed_adam.py), one call per public method, over
 * row indices.  The NumPy reference of each call (numpy_backend.py,
 * optim/kernels.adam_rows) is reproduced bit for bit: the work is copies,
 * adds, and the Adam update in fused_adam_update's operation order, every
 * operation rounding as an IEEE double on both sides.
 *
 * Index sets are sorted and duplicate-free (repro.utils.setops).  A set is
 * placed in the set it indexes by a merge walk where the reference calls
 * np.searchsorted, and every call checks all of its rows before it writes
 * anything: a row outside [0, n) returns STATUS_OUT_OF_RANGE, a row that is
 * not a member (in order) of the set it indexes STATUS_VIOLATED.  The static
 * add_grads_rows and retire_rows are train_step's stages only.
 *
 * The pinned store's rows are ``stride`` doubles: sh (k3 = 3K values), the
 * opacity, zero padding.  The critical store's are positions 3 | log-scales 3
 * | quaternions 4.  A working set of m rows is one block laid out field after
 * field: sh (m, k3) | opacity (m) | grad_sh (m, k3) | grad_opacity (m) |
 * positions (m, 3) | log_scales (m, 3) | quaternions (m, 4).
 * ====================================================================== */

/* Position of ``key`` in the sorted s[0 .. ns), searching from ``from`` (the
 * previous key's position + 1 in a merge walk); -1 when it is not there. */
static inline int64_t walk(const int64_t *s, int64_t ns, int64_t from, int64_t key)
{
    while (from < ns && s[from] < key)
        from++;
    return from < ns && s[from] == key ? from : -1;
}

/* Whether each q[k] is a member of s, in increasing order. */
static bool members(const int64_t *q, int64_t nq, const int64_t *s, int64_t ns)
{
    for (int64_t k = 0, j = 0; k < nq; k++, j++)
        if ((j = walk(s, ns, j, q[k])) < 0)
            return false;
    return true;
}

/* dst[e] += src[e] for e < count, in pairs: -O2 vectorizes this form (not
 * the one-at-a-time loop), and every sum still rounds on its own. */
static void add_into(double *dst, const double *src, int64_t count)
{
    int64_t e = 0;
    for (; e + 1 < count; e += 2) {
        const double a = dst[e] + src[e], b = dst[e + 1] + src[e + 1];
        dst[e] = a;
        dst[e + 1] = b;
    }
    if (e < count)
        dst[e] += src[e];
}

/* Whether s[0 .. ns) strictly increases inside [0, n). */
static bool index_set(const int64_t *s, int64_t ns, int64_t n)
{
    for (int64_t k = 0; k < ns; k++)
        if (s[k] < (k ? s[k - 1] + 1 : 0) || s[k] >= n)
            return false;
    return true;
}

/* GpuWorkingSet.assemble: the block of working set ws[0 .. m), in one pass
 * over it.  A row's sh and opacity come from the pinned rows when it is a
 * load (loads win: the reference writes them last), else from the previous
 * buffer (rows prev[0 .. mp) of prev_sh / prev_opacity) when it is cached,
 * else are zero; its gradients are the carried row when it is carried, else
 * zero; its critical attributes come from the (n, 10) critical rows. */
int assemble_rows(
    int64_t n, int64_t k3, int64_t stride, const double *pinned,
    const double *critical, const int64_t *ws, int64_t m,
    const int64_t *loads, int64_t num_loads, const int64_t *cached,
    int64_t num_cached, const int64_t *prev, int64_t mp,
    const double *prev_sh, const double *prev_opacity,
    const int64_t *carried, int64_t num_carried, const double *carried_sh,
    const double *carried_opacity, double *block)
{
    if (!index_set(ws, m, n))
        return STATUS_OUT_OF_RANGE;
    if (!members(cached, num_cached, prev, mp) ||
        !members(cached, num_cached, ws, m) ||
        !members(loads, num_loads, ws, m) ||
        !members(carried, num_carried, ws, m))
        return STATUS_VIOLATED;
    const size_t row = (size_t)k3 * sizeof(double);
    double *sh = block, *opacity = sh + m * k3, *grad_sh = opacity + m;
    double *grad_opacity = grad_sh + m * k3, *positions = grad_opacity + m;
    double *log_scales = positions + 3 * m, *quats = log_scales + 3 * m;
    int64_t kl = 0, kc = 0, kr = 0, j = 0;
    for (int64_t i = 0; i < m; i++) {
        const int64_t r = ws[i];
        const int is_cached = kc < num_cached && cached[kc] == r;
        if (is_cached) {
            j = walk(prev, mp, j, r);
            kc++;
        }
        if (kl < num_loads && loads[kl] == r) {
            memcpy(sh + i * k3, pinned + r * stride, row);
            opacity[i] = pinned[r * stride + k3];
            kl++;
        } else if (is_cached) {
            memcpy(sh + i * k3, prev_sh + j * k3, row);
            opacity[i] = prev_opacity[j];
        } else {
            memset(sh + i * k3, 0, row);
            opacity[i] = 0.0;
        }
        j += is_cached;
        if (kr < num_carried && carried[kr] == r) {
            memcpy(grad_sh + i * k3, carried_sh + kr * k3, row);
            grad_opacity[i] = carried_opacity[kr++];
        } else {
            memset(grad_sh + i * k3, 0, row);
            grad_opacity[i] = 0.0;
        }
        memcpy(positions + 3 * i, critical + r * 10, 3 * sizeof(double));
        memcpy(log_scales + 3 * i, critical + r * 10 + 3, 3 * sizeof(double));
        memcpy(quats + 4 * i, critical + r * 10 + 6, 4 * sizeof(double));
    }
    return STATUS_OK;
}

/* GpuWorkingSet.add_grads: a backward pass's gradients of ws[0 .. m) added
 * to the working set's gradient buffers (non-critical) and to rows ws of the
 * critical accumulator, (rows, 10).  train_step's assemble_rows has checked
 * ws (the same index_set test) before. */
static void add_grads_rows(
    int64_t k3, const int64_t *ws, int64_t m, double *grad_sh,
    double *grad_opacity, const double *d_sh, const double *d_opacity,
    const double *d_positions, const double *d_log_scales,
    const double *d_quats, double *critical_grads)
{
    add_into(grad_sh, d_sh, m * k3);
    add_into(grad_opacity, d_opacity, m);
    for (int64_t i = 0; i < m; i++) {
        double *dst = critical_grads + ws[i] * 10;
        add_into(dst, d_positions + 3 * i, 3);
        add_into(dst + 3, d_log_scales + 3 * i, 3);
        add_into(dst + 6, d_quats + 4 * i, 4);
    }
}

/* GpuWorkingSet.retire: the gradients of rows stores[0 .. num_stores) of the
 * working set ws[0 .. m) added into the pinned gradient rows (whose padding
 * gains +0.0: the reference adds a zero-padded row), and those of carried[0
 * .. num_carried) copied into ``carry``: sh (num_carried, k3), then opacity. */
static int retire_rows(
    int64_t n, int64_t k3, int64_t stride, double *pinned_grads,
    const int64_t *ws, int64_t m, const double *grad_sh,
    const double *grad_opacity, const int64_t *stores, int64_t num_stores,
    const int64_t *carried, int64_t num_carried, double *carry)
{
    if (!in_range(stores, num_stores, n))
        return STATUS_OUT_OF_RANGE;
    if (!members(stores, num_stores, ws, m) ||
        !members(carried, num_carried, ws, m))
        return STATUS_VIOLATED;
    for (int64_t k = 0, j = 0; k < num_stores; k++, j++) {
        double *dst = pinned_grads + stores[k] * stride;
        j = walk(ws, m, j, stores[k]);
        add_into(dst, grad_sh + j * k3, k3);
        dst[k3] += grad_opacity[j];
        for (int64_t c = k3 + 1; c < stride; c++)
            dst[c] += 0.0;
    }
    for (int64_t k = 0, j = 0; k < num_carried; k++, j++) {
        j = walk(ws, m, j, carried[k]);
        memcpy(carry + k * k3, grad_sh + j * k3, (size_t)k3 * sizeof(double));
        carry[num_carried * k3 + k] = grad_opacity[j];
    }
    return STATUS_OK;
}

/* zero_grads: rows[0 .. count) of an (n, width) buffer set to 0.0, whole. */
int zero_rows(
    int64_t n, int64_t width, double *buffer, const int64_t *rows, int64_t count)
{
    if (!in_range(rows, count, n))
        return STATUS_OUT_OF_RANGE;
    for (int64_t k = 0; k < count; k++)
        memset(buffer + rows[k] * width, 0, (size_t)width * sizeof(double));
    return STATUS_OK;
}

/* The fused Adam step over rows[0 .. count) of a packed layout, in place.
 * Per row r: t = steps[r] + bump (stored back when bump is set), then over
 * columns c < width of params / grads (rows ``p_stride`` / ``g_stride``
 * doubles apart) and of the (n, width) moments, fused_adam_update's
 * operations in its order:
 *
 *     m = m b1 + (1 - b1) g          v = v b2 + (g g)(1 - b2)
 *     p = p - m / (sqrt(v) rsqrt_bc2[t] + eps) lr[c] / bc1[t]
 *
 * The rows are checked first.  Returns STATUS_OUT_OF_RANGE when one is
 * outside [0, n), STATUS_VIOLATED when one repeats (the reference's take /
 * update / scatter updates a repeated row once, a loop in place would not),
 * STATUS_TABLES_SHORT when a step falls outside the ``table`` entries of the
 * bias-correction tables it was handed (they are swapped for longer ones as
 * steps grow), STATUS_NO_MEMORY when the repeat check's bitmap cannot be
 * allocated; nothing is written then.  The four arrays must not
 * overlap (the binding refuses that): they are ``restrict``, which is what
 * lets -O2 vectorize the column loop. */
int adam_rows(
    double *restrict params, int64_t p_stride, const double *restrict grads,
    int64_t g_stride, double *restrict m, double *restrict v, int64_t width,
    int64_t *restrict steps, int64_t n, const int64_t *rows, int64_t count,
    const double *restrict lr, double beta1, double beta2, double eps,
    const double *bc1, const double *rsqrt_bc2, int64_t table, int64_t bump)
{
    int sorted = 1, beyond = 0;
    for (int64_t k = 0; k < count; k++) {
        const int64_t r = rows[k];
        if (r < 0 || r >= n)
            return STATUS_OUT_OF_RANGE;
        if (k > 0 && r <= rows[k - 1])
            sorted = 0;
        beyond |= steps[r] + bump < 0 || steps[r] + bump >= table;
    }
    if (!sorted) {
        /* Increasing rows cannot repeat; others are marked one bit a row. */
        uint8_t *seen = calloc((size_t)(n / 8 + 1), 1);
        if (seen == NULL)
            return STATUS_NO_MEMORY;
        int64_t k = 0;
        for (; k < count; k++) {
            const int64_t r = rows[k];
            if (seen[r / 8] & (1u << (r % 8)))
                break;
            seen[r / 8] |= (uint8_t)(1u << (r % 8));
        }
        free(seen);
        if (k < count)
            return STATUS_VIOLATED;
    }
    if (beyond)
        return STATUS_TABLES_SHORT;
    const double c1 = 1 - beta1, c2 = 1 - beta2;
    for (int64_t k = 0; k < count; k++) {
        const int64_t r = rows[k];
        const int64_t t = steps[r] + bump;
        const double bc = bc1[t], rs = rsqrt_bc2[t];
        double *restrict p = params + r * p_stride;
        const double *restrict g = grads + r * g_stride;
        double *restrict mr = m + r * width, *restrict vr = v + r * width;
        steps[r] = t;
        /* Column pairs written out, so that -O2's block vectorizer (which
         * leaves a loop of unknown length scalar) runs them two a lane. */
        int64_t c = 0;
        for (; c + 1 < width; c += 2) {
            const double m0 = mr[c] * beta1 + c1 * g[c];
            const double m1 = mr[c + 1] * beta1 + c1 * g[c + 1];
            const double v0 = vr[c] * beta2 + g[c] * g[c] * c2;
            const double v1 = vr[c + 1] * beta2 + g[c + 1] * g[c + 1] * c2;
            mr[c] = m0;
            mr[c + 1] = m1;
            vr[c] = v0;
            vr[c + 1] = v1;
            p[c] = p[c] - m0 / (sqrt(v0) * rs + eps) * lr[c] / bc;
            p[c + 1] = p[c + 1] - m1 / (sqrt(v1) * rs + eps) * lr[c + 1] / bc;
        }
        for (; c < width; c++) {
            const double mm = mr[c] * beta1 + c1 * g[c];
            const double vv = vr[c] * beta2 + g[c] * g[c] * c2;
            mr[c] = mm;
            vr[c] = vv;
            p[c] = p[c] - mm / (sqrt(vv) * rs + eps) * lr[c] / bc;
        }
    }
    return STATUS_OK;
}

/* ======================================================================
 * The photometric loss of gaussians/loss.py, (1 - lambda) L1 + lambda
 * (1 - SSIM), and its gradient with respect to the rendered image, in one
 * call.  Its reference is numpy_backend._photometric_loss: l1_loss, then
 * ssim_with_grad's SSIM map and moment gradients, term for term.
 *
 * Images are (H, W, C) with interleaved channels; the target's moments
 * (loss.TargetMoments: E[y], E[y]^2 + C1, E[y^2] - E[y]^2 + C2) are (C, H, W)
 * planes.  The SSIM window is separable and zero-padded, as
 * loss._window_matrix defines it, and symmetric: t[k] == t[size - 1 - k].  So
 * every filtered value is summed in a register, the centre tap first, then
 * the (size - 1) / 2 symmetric pairs t[k] (r[x + k] + r[x + size - 1 - k])
 * of a row r padded with (size - 1) / 2 zeros a side; the column pass does the
 * same over rows, a row outside the image reading a row of zeros.  Three
 * quantities are filtered at once, interleaved: x, x^2 and x y, then the
 * three moment gradients.  The reference multiplies by banded matrices and
 * BLAS sums the zero-padded rows in its own order, so the two agree to
 * rounding, not bit for bit.
 * ====================================================================== */

/* out[o] = t[half] c[o] + sum over k < half of t[k] (pair[2k][o] +
 * pair[2k + 1][o]), for o < n: each output summed in a register, eight at a
 * time, written out so that the block vectorizer runs them two to a lane
 * (every sum still rounds on its own, in this order). */
static void window_sum(
    const double *c, const double **pair, const double *t, int64_t half,
    int64_t n, double *out)
{
    const double tc = t[half];
    int64_t o = 0;
    for (; o + 8 <= n; o += 8) {
        double s0 = tc * c[o], s1 = tc * c[o + 1], s2 = tc * c[o + 2],
               s3 = tc * c[o + 3], s4 = tc * c[o + 4], s5 = tc * c[o + 5],
               s6 = tc * c[o + 6], s7 = tc * c[o + 7];
        for (int64_t k = 0; k < half; k++) {
            const double *a = pair[2 * k] + o, *b = pair[2 * k + 1] + o;
            const double tk = t[k];
            s0 += tk * (a[0] + b[0]);
            s1 += tk * (a[1] + b[1]);
            s2 += tk * (a[2] + b[2]);
            s3 += tk * (a[3] + b[3]);
            s4 += tk * (a[4] + b[4]);
            s5 += tk * (a[5] + b[5]);
            s6 += tk * (a[6] + b[6]);
            s7 += tk * (a[7] + b[7]);
        }
        out[o] = s0;
        out[o + 1] = s1;
        out[o + 2] = s2;
        out[o + 3] = s3;
        out[o + 4] = s4;
        out[o + 5] = s5;
        out[o + 6] = s6;
        out[o + 7] = s7;
    }
    for (; o < n; o++) {
        double s = tc * c[o];
        for (int64_t k = 0; k < half; k++)
            s += t[k] * (pair[2 * k][o] + pair[2 * k + 1][o]);
        out[o] = s;
    }
}

/* The row pass over w interleaved triples: ``r`` holds them behind half zero
 * triples and before half more, so sample x + k - half of each quantity is
 * r[3 (x + k) + q], and the pair of tap k is samples x + k and
 * x + size - 1 - k. */
static void filter_row(
    const double *r, int64_t w, const double *t, int64_t half,
    const double **pair, double *out)
{
    for (int64_t k = 0; k < half; k++) {
        pair[2 * k] = r + 3 * k;
        pair[2 * k + 1] = r + 3 * (2 * half - k);
    }
    window_sum(r + 3 * half, pair, t, half, 3 * w, out);
}

/* Row y of the column pass over ``rows`` (h rows of w triples): the pair of
 * tap k is the rows half - k above and below, a row outside the image
 * clipped to ``zero``. */
static void filter_column(
    const double *rows, int64_t h, int64_t w, int64_t y, const double *zero,
    const double *t, int64_t half, const double **pair, double *out)
{
    const int64_t n = 3 * w;
    for (int64_t k = 0; k < half; k++) {
        const int64_t above = y - half + k, below = y + half - k;
        pair[2 * k] = above >= 0 ? rows + above * n : zero;
        pair[2 * k + 1] = below < h ? rows + below * n : zero;
    }
    window_sum(rows + y * n, pair, t, half, n, out);
}

/* np.sign: a NaN stays NaN, either zero is +0. */
static inline double sign_of(double d)
{
    return d > 0.0 ? 1.0 : d < 0.0 ? -1.0 : d == 0.0 ? 0.0 : d;
}

/* The loss of ``x`` against ``y`` (both h x w x channels) into *value and its
 * gradient into ``grad`` (same shape), over the target's moment planes and
 * the ``size`` (odd) window taps.  Per channel: the row pass of x, x^2, x y
 * for every row; then row by row their column pass, the SSIM map and its
 * three moment gradients, and the row pass of those; then row by row the
 * column pass of the gradients and the combination with the L1 gradient.
 * Sums of the map and of |x - y| are kept per row, then added up.
 *
 * A non-finite moment gradient anywhere in a channel makes that channel's
 * whole gradient NaN: so does the reference's zero-padded matrix product,
 * whose band of zeros meets it (0 inf and 0 NaN are NaN).  Returns
 * STATUS_NO_MEMORY when the scratch cannot be allocated (nothing is written
 * then). */
int photometric_loss(
    int64_t h, int64_t w, int64_t channels, const double *x, const double *y,
    const double *uy, const double *uy2_c1, const double *vy_c2,
    const double *t, int64_t size, double ssim_lambda, double c1, double c2,
    double *grad, double *value)
{
    const int64_t half = (size - 1) / 2, n3 = 3 * w, plane = h * w;
    const double n = (double)(plane * channels);
    /* The two passes' row-filtered triples (h rows each), one padded row, one
     * column-filtered row, the zero row, then the column pass's pointers. */
    const size_t padded = 3 * (size_t)(w + 2 * half);
    const size_t doubles = 2 * (size_t)(h * n3) + padded + 2 * (size_t)n3;
    if (doubles > SIZE_MAX / 16)
        return STATUS_NO_MEMORY;
    char *block =
        malloc(doubles * sizeof(double) + 2 * (size_t)half * sizeof(double *));
    if (block == NULL)
        return STATUS_NO_MEMORY;
    double *first = (double *)block, *second = first + h * n3;
    double *pad = second + h * n3, *row_out = pad + padded, *zero = row_out + n3;
    const double **pair = (const double **)(zero + n3);
    double *r = pad + 3 * half;  /* the padded row's first sample */
    memset(pad, 0, padded * sizeof(double));  /* the margins stay zero */
    memset(zero, 0, (size_t)n3 * sizeof(double));

    double s_sum = 0.0, l1_sum = 0.0;
    for (int64_t ch = 0; ch < channels; ch++) {
        const double *my = uy + ch * plane, *my2 = uy2_c1 + ch * plane;
        const double *vy = vy_c2 + ch * plane;
        for (int64_t i = 0; i < h; i++) {
            for (int64_t j = 0; j < w; j++) {
                const int64_t at = (i * w + j) * channels + ch;
                r[3 * j] = x[at];
                r[3 * j + 1] = x[at] * x[at];
                r[3 * j + 2] = x[at] * y[at];
            }
            filter_row(pad, w, t, half, pair, first + i * n3);
        }

        double poison = 0.0;  /* stays 0 while every moment gradient is finite */
        for (int64_t i = 0; i < h; i++) {
            filter_column(first, h, w, i, zero, t, half, pair, row_out);
            double s_row = 0.0;
            for (int64_t j = 0; j < w; j++) {
                const int64_t p = i * w + j;
                const double ux = row_out[3 * j], uxx = row_out[3 * j + 1];
                const double uxy = row_out[3 * j + 2];
                const double ux2 = ux * ux, ux_uy = ux * my[p];
                const double a1 = 2 * ux_uy + c1;
                const double a2 = 2 * (uxy - ux_uy) + c2;
                const double b1 = ux2 + my2[p];
                const double b2 = (uxx - ux2) + vy[p];
                const double inv_b1b2 = 1.0 / (b1 * b2);
                const double s = a1 * a2 * inv_b1b2;
                s_row += s;
                /* dS/dm / n for m = ux, uxx, uxy (see ssim_with_grad). */
                const double s_n = s / n, inv_n = inv_b1b2 / n;
                const double g_uxx = -(s_n / b2);
                const double g_ux =
                    ((a2 - a1) * my[p] * inv_n - ux * (s_n / b1 + g_uxx)) * 2;
                const double g_uxy = a1 * inv_n * 2;
                r[3 * j] = g_ux;
                r[3 * j + 1] = g_uxx;
                r[3 * j + 2] = g_uxy;
                poison += (g_ux - g_ux) + (g_uxx - g_uxx) + (g_uxy - g_uxy);
            }
            s_sum += s_row;
            filter_row(pad, w, t, half, pair, second + i * n3);
        }

        for (int64_t i = 0; i < h; i++) {
            filter_column(second, h, w, i, zero, t, half, pair, row_out);
            double l1_row = 0.0;
            for (int64_t j = 0; j < w; j++) {
                const int64_t at = (i * w + j) * channels + ch;
                const double d = x[at] - y[at];
                l1_row += fabs(d);
                const double *f = row_out + 3 * j;  /* f_ux, f_uxx, f_uxy */
                const double s_grad = (f[0] + f[1] * x[at] * 2) + f[2] * y[at];
                grad[at] = (1.0 - ssim_lambda) * (sign_of(d) / n) - ssim_lambda * s_grad;
            }
            l1_sum += l1_row;
        }
        if (poison != 0.0)
            for (int64_t p = 0; p < plane; p++)
                grad[p * channels + ch] = NAN;
    }
    *value = (1.0 - ssim_lambda) * (l1_sum / n) + ssim_lambda * (1.0 - s_sum / n);
    free(block);
    return STATUS_OK;
}

/* ======================================================================
 * A batch's plan (planning/planner.py, paper §4.2): the microbatch order, each
 * step's transfer partitions, the touched union and the Adam chunks, in one
 * call.  Its reference is planner.plan_batch: tsp_order.tsp_order (when the
 * order is searched), caching.build_transfer_plan, adam_overlap.touched_union
 * and adam_overlap.adam_chunks, composed.
 *
 * The ``count`` index sets are sets[offsets[k] .. offsets[k + 1]), each
 * sorted and duplicate-free in [0, n): that is checked first, in one pass in
 * input order, and the first entry that breaks it is reported at out[0]
 * (STATUS_OUT_OF_RANGE for an index outside [0, n), STATUS_VIOLATED for one
 * that does not increase).  ``seq`` is a permutation of the sets: the order
 * itself, or with ``search`` the start nodes of the local search (drawn by the
 * caller, so its random stream is the reference's); out[0] is -1 when it is
 * not one.
 *
 * The search is tsp_order.stochastic_local_search move for move: |S_i ^ S_j|
 * from merges of the sorted runs, nearest-neighbour construction (the lowest
 * node on ties), then 2-opt and or-opt passes (segments of at most 3) until
 * neither improves, an or-opt pass that found nothing not repeated on the
 * order it left; the best restart wins, the earliest on ties.  Moves are
 * priced in int64, exactly (the reference's ``delta + 1e-12 < 0`` on
 * integers).  Above ``untimed`` sets the search stops at the first check past
 * a CLOCK_MONOTONIC deadline ``time_limit`` seconds after the distances, as
 * the reference does on its clock.
 *
 * ``out`` holds 3 + 4 count + 5 T values for T = offsets[count]:
 *
 *     [0] the malformed entry   [1] nanoseconds spent ordering   [2] U
 *     order (count) | loads per step (count) | stores per step (count)
 *     | Adam chunk sizes (count)
 *     | per step, in order: the working set S | loads S \ prev | cached
 *       S & prev | stores S \ next | carried S & next   (3 |S| values)
 *     | the touched union (U) | the chunks F_1 .. F_count, each sorted (U)
 *
 * prev / next are the neighbouring steps' sets, empty at the ends and
 * without ``enable_cache``.  The partitions keep the working set's order.
 * ====================================================================== */

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* |a & b| of two sorted runs. */
static int64_t common(const int64_t *a, int64_t na, const int64_t *b, int64_t nb)
{
    int64_t i = 0, j = 0, both = 0;
    while (i < na && j < nb) {
        const int64_t x = a[i], y = b[j];
        both += x == y;
        i += x <= y;
        j += y <= x;
    }
    return both;
}

/* The path from ``start`` that always steps to the nearest unvisited node,
 * the lowest-numbered one on ties. */
static void nearest_neighbour(
    const int64_t *d, int64_t b, int64_t start, int64_t *path, uint8_t *seen)
{
    memset(seen, 0, (size_t)b);
    path[0] = start;
    seen[start] = 1;
    for (int64_t k = 1; k < b; k++) {
        const int64_t *row = d + path[k - 1] * b;
        int64_t next = -1;
        for (int64_t j = 0; j < b; j++)
            if (!seen[j] && (next < 0 || row[j] < row[next]))
                next = j;
        path[k] = next;
        seen[next] = 1;
    }
}

/* One 2-opt sweep over path[0 .. b): every span path[i .. j] whose reversal
 * shortens the path is reversed as it is found.  Whether one was. */
static bool two_opt(const int64_t *d, int64_t b, int64_t *path)
{
    bool improved = false;
    for (int64_t i = 0; i + 1 < b; i++) {
        const int64_t *before = i > 0 ? d + path[i - 1] * b : NULL;
        for (int64_t j = i + 1; j < b; j++) {
            const int64_t head = path[i], tail = path[j];
            int64_t delta = 0;
            if (before != NULL)
                delta += before[tail] - before[head];
            if (j < b - 1) {
                const int64_t *after = d + path[j + 1] * b;
                delta += after[head] - after[tail];
            }
            if (delta < 0) {
                for (int64_t lo = i, hi = j; lo < hi; lo++, hi--) {
                    const int64_t swap = path[lo];
                    path[lo] = path[hi];
                    path[hi] = swap;
                }
                improved = true;
            }
        }
    }
    return improved;
}

/* One or-opt sweep: segments of 1, 2, then 3 nodes, every start in turn, each
 * moved to the place that shortens the path most (the first such place on
 * ties), if any does.  ``rest`` and ``splice`` hold b + 1 values each. */
static bool or_opt(
    const int64_t *d, int64_t b, int64_t *path, int64_t *rest, int64_t *splice)
{
    bool improved = false;
    for (int64_t len = 1; len <= min_i64(3, b - 1); len++) {
        const int64_t r = b - len;
        for (int64_t i = 0; i <= r; i++) {
            int64_t segment[3];
            memcpy(segment, path + i, (size_t)len * sizeof(int64_t));
            memcpy(rest, path, (size_t)i * sizeof(int64_t));
            memcpy(rest + i, path + i + len, (size_t)(r - i) * sizeof(int64_t));
            const int64_t *to_first = d + segment[0] * b;
            const int64_t *from_last = d + segment[len - 1] * b;
            /* The change in length from splicing the segment in before
             * rest[p], for every p; where it sits now (p == i) is no move. */
            splice[0] = from_last[rest[0]];
            for (int64_t p = 1; p < r; p++)
                splice[p] = to_first[rest[p - 1]] + from_last[rest[p]] -
                            d[rest[p - 1] * b + rest[p]];
            splice[r] = to_first[rest[r - 1]];
            int64_t at = -1;
            for (int64_t p = 0; p <= r; p++)
                if (p != i && (at < 0 || splice[p] < splice[at]))
                    at = p;
            if (splice[at] - splice[i] < 0) {
                memcpy(path, rest, (size_t)at * sizeof(int64_t));
                memcpy(path + at, segment, (size_t)len * sizeof(int64_t));
                memcpy(path + at + len, rest + at, (size_t)(r - at) * sizeof(int64_t));
                improved = true;
            }
        }
    }
    return improved;
}

/* The local search from each start node starts[0 .. b) in turn, into
 * ``best``; ``deadline`` (ns) ends it when ``timed``. */
static void local_search(
    const int64_t *d, int64_t b, const int64_t *starts, bool timed,
    int64_t deadline, int64_t *best, int64_t *path, int64_t *rest,
    int64_t *splice, uint8_t *seen)
{
    int64_t best_cost = 0;
    bool have_best = false;
    for (int64_t s = 0; s < b; s++) {
        nearest_neighbour(d, b, starts[s], path, seen);
        bool or_settled = false;
        for (;;) {
            const bool improved2 = two_opt(d, b, path);
            bool improved3 = false;
            if (improved2 || !or_settled) {
                improved3 = or_opt(d, b, path, rest, splice);
                or_settled = !improved3;
            }
            if (!(improved2 || improved3))
                break;
            if (have_best && timed && now_ns() > deadline)
                break;
        }
        int64_t cost = 0;
        for (int64_t k = 1; k < b; k++)
            cost += d[path[k - 1] * b + path[k]];
        if (!have_best || cost < best_cost) {
            best_cost = cost;
            have_best = true;
            memcpy(best, path, (size_t)b * sizeof(int64_t));
        }
        if (timed && now_ns() > deadline)
            break;
    }
}

/* Two neighbouring steps' sets in one merge: the rows of ``a`` that ``b``
 * lacks to a_out[0 ..) (step i's stores), the rows of ``b`` that ``a`` lacks
 * to b_out[0 ..) (step i + 1's loads), and the rows they share, in order, to
 * the ends of a_out[0 .. na) (carried) and b_out[0 .. nb) (cached).  The
 * first two counts go to *a_lacks and *b_lacks.  Free of data-dependent
 * branches (the sets interleave unpredictably): each step of the merge writes
 * its rows to every slot they may claim and advances only the counts that
 * claim one; a slot left unclaimed is written again later.  The shared rows
 * go backward from the end of a_out, then are reversed and copied. */
static void merge_pair(
    const int64_t *a, int64_t na, const int64_t *b, int64_t nb, int64_t *a_out,
    int64_t *b_out, int64_t *a_lacks, int64_t *b_lacks)
{
    int64_t i = 0, j = 0, ka = 0, kb = 0, shared = 0;
    while (i < na && j < nb) {
        const int64_t x = a[i], y = b[j];
        a_out[ka] = x;
        b_out[kb] = y;
        a_out[na - 1 - shared] = x;
        ka += x < y;
        kb += y < x;
        shared += x == y;
        i += x <= y;
        j += y <= x;
    }
    memcpy(a_out + ka, a + i, (size_t)(na - i) * sizeof(int64_t));
    memcpy(b_out + kb, b + j, (size_t)(nb - j) * sizeof(int64_t));
    int64_t *common = a_out + (na - shared);
    for (int64_t lo = 0, hi = shared - 1; lo < hi; lo++, hi--) {
        const int64_t swap = common[lo];
        common[lo] = common[hi];
        common[hi] = swap;
    }
    memcpy(b_out + (nb - shared), common, (size_t)shared * sizeof(int64_t));
    *a_lacks = na - i + ka;
    *b_lacks = nb - j + kb;
}

/* The step-ordered cursors of the touched-union merge: a binary heap on
 * (next row, step). */
typedef struct {
    const int64_t *at, *end;
    int64_t step;
} cursor_t;

static inline bool before(const cursor_t *a, const cursor_t *b)
{
    return *a->at < *b->at || (*a->at == *b->at && a->step < b->step);
}

static void sift_down(cursor_t *heap, int64_t size, int64_t k)
{
    for (;;) {
        int64_t low = k;
        const int64_t left = 2 * k + 1, right = left + 1;
        if (left < size && before(&heap[left], &heap[low]))
            low = left;
        if (right < size && before(&heap[right], &heap[low]))
            low = right;
        if (low == k)
            return;
        const cursor_t swap = heap[k];
        heap[k] = heap[low];
        heap[low] = swap;
        k = low;
    }
}

int plan_batch(
    int64_t count, const int64_t *sets, const int64_t *offsets, int64_t n,
    const int64_t *seq, int64_t search, double time_limit, int64_t untimed,
    int64_t enable_cache, int64_t *out)
{
    out[0] = -1;
    for (int64_t k = 0; k < count; k++)
        for (int64_t p = offsets[k]; p < offsets[k + 1]; p++) {
            const int64_t row = sets[p];
            out[0] = p;
            if (row < 0 || row >= n)
                return STATUS_OUT_OF_RANGE;
            if (p > offsets[k] && row <= sets[p - 1])
                return STATUS_VIOLATED;
        }
    out[0] = -1;
    const int64_t b = count, total = offsets[count];
    const size_t words = (size_t)(b * b + 3 * b + 2 + total) +
                         (size_t)b * (sizeof(cursor_t) / sizeof(int64_t));
    int64_t *scratch = malloc(words * sizeof(int64_t) + (size_t)b + 1);
    if (scratch == NULL)
        return STATUS_NO_MEMORY;
    int64_t *d = scratch, *path = d + b * b, *rest = path + b;
    int64_t *splice = rest + b + 1, *last = splice + b + 1;
    cursor_t *heap = (cursor_t *)(last + total);
    uint8_t *seen = (uint8_t *)(scratch + words);
    memset(seen, 0, (size_t)b);
    for (int64_t k = 0; k < b; k++) {
        if (seq[k] < 0 || seq[k] >= b || seen[seq[k]]) {
            free(scratch);
            return STATUS_VIOLATED;
        }
        seen[seq[k]] = 1;
    }

    int64_t *order = out + 3, *num_loads = order + b, *num_stores = num_loads + b;
    int64_t *chunk_sizes = num_stores + b, *steps = chunk_sizes + b;
    const int64_t start = now_ns();
    if (search && b > 1) {
        for (int64_t i = 0; i < b; i++) {
            d[i * b + i] = 0;
            for (int64_t j = i + 1; j < b; j++) {
                const int64_t ni = offsets[i + 1] - offsets[i];
                const int64_t nj = offsets[j + 1] - offsets[j];
                d[i * b + j] = d[j * b + i] =
                    ni + nj - 2 * common(sets + offsets[i], ni, sets + offsets[j], nj);
            }
        }
        /* A budget past any clock reading (or NaN) never binds, as a
         * deadline of +inf (or NaN) never does in the reference; one below
         * any (-inf) has passed by the end of the first restart. */
        const double budget = time_limit * 1e9;
        const bool timed = b > untimed && budget < 4e18;
        const int64_t deadline =
            !timed ? 0 : budget > -4e18 ? now_ns() + (int64_t)budget : INT64_MIN;
        local_search(d, b, seq, timed, deadline, order, path, rest, splice, seen);
    } else {
        memcpy(order, seq, (size_t)b * sizeof(int64_t));
    }
    out[1] = now_ns() - start;

    /* The steps: each working set, its loads (all of it at the first step
     * or without the cache) and its stores (likewise at the last), the rest
     * from one merge a pair of neighbours; and the cursors of the
     * touched-union merge over the working sets. */
    int64_t *at = steps, *prev = NULL, live = 0, n_prev = 0;
    for (int64_t i = 0; i < b; i++) {
        const int64_t ns = offsets[order[i] + 1] - offsets[order[i]];
        /* Every set empty: ``sets`` is NULL, which no memcpy may read. */
        const int64_t *s = ns ? sets + offsets[order[i]] : NULL;
        const size_t bytes = (size_t)ns * sizeof(int64_t);
        if (ns)
            memcpy(at, s, bytes);
        if (enable_cache && i > 0) {
            merge_pair(prev, n_prev, at, ns, prev + 2 * n_prev, at + ns,
                       &num_stores[i - 1], &num_loads[i]);
        } else {
            if (ns)
                memcpy(at + ns, s, bytes);
            num_loads[i] = ns;
        }
        if (!enable_cache || i == b - 1) {
            if (ns)
                memcpy(at + 2 * ns, s, bytes);
            num_stores[i] = ns;
        }
        if (ns)
            heap[live++] = (cursor_t){at, at + ns, i};
        prev = at;
        n_prev = ns;
        at += 3 * ns;
    }
    for (int64_t k = live / 2 - 1; k >= 0; k--)
        sift_down(heap, live, k);

    /* The touched union, each row with the last step holding it: the heap
     * yields equal rows in step order. */
    int64_t *touched = at, u = 0;
    while (live) {
        const int64_t row = *heap[0].at;
        if (u == 0 || touched[u - 1] != row)
            touched[u++] = row;
        last[u - 1] = heap[0].step;
        if (++heap[0].at == heap[0].end)
            heap[0] = heap[--live];
        sift_down(heap, live, 0);
    }
    out[2] = u;

    /* The chunks: the touched rows grouped by their last step, in order. */
    int64_t *chunks = touched + u;
    memset(chunk_sizes, 0, (size_t)b * sizeof(int64_t));
    for (int64_t k = 0; k < u; k++)
        chunk_sizes[last[k]]++;
    for (int64_t i = 0, sum = 0; i < b; i++) {
        path[i] = sum;
        sum += chunk_sizes[i];
    }
    for (int64_t k = 0; k < u; k++)
        chunks[path[last[k]]++] = touched[k];
    free(scratch);
    return STATUS_OK;
}

/* ======================================================================
 * A microbatch step: the training view every engine runs, in one call; and a
 * whole CLM batch, its steps and Adam chunks, in one call.
 *
 * view_step is the view: the m input rows (rows[0 .. m) of n, read in place,
 * or all n when ``rows`` is NULL) rendered, the loss taken, the image
 * gradient divided by ``batch`` and backpropagated into ``grads``, the five
 * gradient arrays of the m rows field after field (positions, log-scales,
 * quaternions, sh, logits; zeroed here):
 *
 *     view_project -> view_composite -> photometric_loss -> (/ batch)
 *     -> view_backward
 *
 * Two entry points call it.  train_step (engines/clm.py, CLMEngine._run_step;
 * paper §5.2-5.4) is a CLM microbatch, clm_step: the selective load before
 * it, the gradient accumulation and offload after.  Its reference is
 * stores.train_step, the composition of GpuWorkingSet.assemble,
 * render.train_view, add_grads and retire; this calls the same functions in
 * the same order (add_grads_rows and retire_rows are static, called from here
 * only), so the two are bit-identical:
 *
 *     assemble_rows -> view_step -> add_grads_rows -> retire_rows
 *
 * view_train (engines/base.py, the naive and GPU-only engines) is a view of a
 * resident full-size model: the working set's rows are read where they are,
 * and its gradients added into the five full-size arrays ``into_*`` at those
 * rows, every row, zeros included (an added +0.0 turns a -0.0 into +0.0, as
 * NumPy's ``full[rows] += sub`` does).  Its reference is render.train_view:
 * model.gather(rows), the view, the scatter-add.
 *
 * Every buffer is the caller's (an engine's Workspace arenas): ``scratch`` /
 * ``work`` view_project's, ``kept`` .. ``rec_end`` the render's own blocks,
 * ``image`` .. ``d_image`` the view's pixels, ``grads`` the gradients, and
 * for view_train over ``rows`` ``sh_rows`` (m rows of the model's sh), where
 * the survivors' SH rows are copied for the backward pass.  train_step's
 * ``block`` is the working set's (see assemble_rows), ``carry`` the carried
 * gradients retire_rows writes; the previous step's block (``prev_sh`` /
 * ``prev_opacity``) and carry (``carried_sh`` / ``carried_opacity``) are read
 * by assemble_rows and must not share memory with ``block``: the caller
 * double-buffers both.
 *
 * The render's own blocks are sized by what view_project counted, so their
 * capacities (``caps``: six counts of values, ``kept`` .. ``rec_end`` in
 * order) are checked then, before any store or full-size array is written: a
 * shortfall returns STATUS_ARENA_SHORT with the counts at
 * out[OUT_SURVIVORS ..], having written only train_step's block, scratch and
 * work, and the caller grows the arenas and calls again.  Any other failure
 * returns the failing call's status, also at out[OUT_STATUS], with its
 * STAGE_* at out[OUT_STAGE].  Each stage's CLOCK_MONOTONIC nanoseconds are
 * added to its OUT_*_NS slot (lap: the time since the last stamp, so the
 * stamps of a call partition it), the loss goes to *value.
 * ====================================================================== */

#define STAGE(name, call)                                                   \
    do {                                                                    \
        const int failed = (call);                                         \
        if (failed) {                                                       \
            out[OUT_STAGE] = STAGE_##name;                                  \
            out[OUT_STATUS] = failed;                                       \
            return failed;                                                  \
        }                                                                   \
    } while (0)

/* The nanoseconds since *clock added to out[slot]; *clock is now. */
static void lap(int64_t *out, int slot, int64_t *clock)
{
    const int64_t now = now_ns();
    out[slot] += now - *clock;
    *clock = now;
}

/* Every stage's stamp set to 0: a call's stamps start from its entry. */
static void clear_stamps(int64_t *out)
{
    memset(out + OUT_ZERO_NS, 0,
           (size_t)(OUT_CRITICAL_ADAM_NS + 1 - OUT_ZERO_NS) * sizeof(int64_t));
}

static int view_step(
    int64_t m, const int64_t *rows, int64_t n, const double *positions,
    const double *log_scales, const double *quats, const double *sh,
    const double *logits, int64_t k_stored, const double *planes,
    int64_t degree, const double *params, int64_t width, int64_t height,
    int64_t ts, int64_t sub, int64_t records, const double *target,
    const double *uy, const double *uy2_c1, const double *vy_c2,
    const double *taps, int64_t size, double ssim_lambda, double c1,
    double c2, double batch, double *sh_rows, double *scratch, int64_t *work,
    double *kept, int64_t *ikept, uint8_t *clamp, double *rec_f,
    int32_t *rec_p, int64_t *rec_end, const int64_t *caps, double *image,
    double *trans, double *d_image, double *grads, double *value,
    int64_t *out, int64_t *clock)
{
    STAGE(VIEW_PROJECT, view_project(
        m, rows, n, positions, log_scales, quats, sh, logits, planes,
        k_stored, degree, params, width, height, ts, sub, scratch, work));
    lap(out, OUT_PROJECT_NS, clock);
    const int64_t survivors = work[0], tiles = work[2], entries = work[3];
    const int64_t area = work[4], lead = tiles * sub * sub;
    const int64_t need[] = {
        F_RETAINED * survivors, survivors + 2 * tiles + 1 + entries,
        3 * survivors, records ? lead + 2 * area : 0, records ? area : 0,
        records ? entries + 1 : 0,
    };
    int short_of = 0;
    for (int k = 0; k < (int)(sizeof need / sizeof *need); k++)
        short_of |= need[k] > caps[k];
    memcpy(out + OUT_SURVIVORS, work, 5 * sizeof(int64_t));
    if (short_of)
        return STATUS_ARENA_SHORT;
    if (!records)
        rec_f = NULL, rec_p = NULL, rec_end = NULL;
    STAGE(VIEW_COMPOSITE, view_composite(
        m, scratch, work, params, width, height, sub, kept, ikept, clamp,
        rec_f, rec_p, rec_end, image, trans));
    lap(out, OUT_COMPOSITE_NS, clock);

    STAGE(PHOTOMETRIC_LOSS, photometric_loss(
        height, width, 3, image, target, uy, uy2_c1, vy_c2, taps, size,
        ssim_lambda, c1, c2, d_image, value));
    lap(out, OUT_LOSS_NS, clock);

    for (int64_t k = 0; k < 3 * width * height; k++)
        d_image[k] = d_image[k] / batch;
    const int64_t k3 = 3 * k_stored;
    double *g_positions = grads, *g_log_scales = g_positions + 3 * m;
    double *g_quats = g_log_scales + 3 * m, *g_sh = g_quats + 4 * m;
    double *g_logits = g_sh + m * k3;
    memset(grads, 0, (size_t)((11 + k3) * m) * sizeof(double));
    /* The backward pass reads survivor r's SH at input row ids[r]. */
    if (rows != NULL) {
        for (int64_t r = 0; r < survivors; r++)
            memcpy(sh_rows + ikept[r] * k3, sh + rows[ikept[r]] * k3,
                   (size_t)k3 * sizeof(double));
        sh = sh_rows;
    }
    STAGE(VIEW_BACKWARD, view_backward(
        survivors, m, tiles, entries, records ? area : 0, kept, ikept, clamp,
        rec_f, rec_p, rec_end, sh, k_stored, degree, params, width, height,
        sub, d_image, g_positions, g_log_scales, g_quats, g_sh, g_logits));
    lap(out, OUT_BACKWARD_NS, clock);
    return STATUS_OK;
}

static int clm_step(
    int64_t n, int64_t k3, int64_t stride, const double *pinned,
    double *pinned_grads, const double *critical, double *critical_grads,
    const int64_t *ws, int64_t m, const int64_t *loads, int64_t num_loads,
    const int64_t *cached, int64_t num_cached, const int64_t *stores,
    int64_t num_stores, const int64_t *carried, int64_t num_carried,
    const int64_t *prev, int64_t mp, const double *prev_sh,
    const double *prev_opacity, const int64_t *carried_in,
    int64_t num_carried_in, const double *carried_sh,
    const double *carried_opacity, const double *planes, int64_t degree,
    const double *params, int64_t width, int64_t height, int64_t ts,
    int64_t sub, int64_t records, const double *target, const double *uy,
    const double *uy2_c1, const double *vy_c2, const double *taps,
    int64_t size, double ssim_lambda, double c1, double c2, double batch,
    double *block, double *carry, double *scratch, int64_t *work,
    double *kept, int64_t *ikept, uint8_t *clamp, double *rec_f,
    int32_t *rec_p, int64_t *rec_end, const int64_t *caps, double *image,
    double *trans, double *d_image, double *grads, double *value,
    int64_t *out, int64_t *clock)
{
    double *sh = block, *opacity = sh + m * k3, *grad_sh = opacity + m;
    double *grad_opacity = grad_sh + m * k3, *positions = grad_opacity + m;
    double *log_scales = positions + 3 * m, *quats = log_scales + 3 * m;
    STAGE(ASSEMBLE_ROWS, assemble_rows(
        n, k3, stride, pinned, critical, ws, m, loads, num_loads, cached,
        num_cached, prev, mp, prev_sh, prev_opacity, carried_in,
        num_carried_in, carried_sh, carried_opacity, block));
    lap(out, OUT_ASSEMBLE_NS, clock);
    const int failed = view_step(
        m, NULL, m, positions, log_scales, quats, sh, opacity, k3 / 3, planes,
        degree, params, width, height, ts, sub, records, target, uy, uy2_c1,
        vy_c2, taps, size, ssim_lambda, c1, c2, batch, NULL, scratch, work,
        kept, ikept, clamp, rec_f, rec_p, rec_end, caps, image, trans,
        d_image, grads, value, out, clock);
    if (failed)
        return failed;
    double *g_positions = grads, *g_log_scales = g_positions + 3 * m;
    double *g_quats = g_log_scales + 3 * m, *g_sh = g_quats + 4 * m;
    add_grads_rows(
        k3, ws, m, grad_sh, grad_opacity, g_sh, g_sh + m * k3, g_positions,
        g_log_scales, g_quats, critical_grads);
    STAGE(RETIRE_ROWS, retire_rows(
        n, k3, stride, pinned_grads, ws, m, grad_sh, grad_opacity, stores,
        num_stores, carried, num_carried, carry));
    lap(out, OUT_RETIRE_NS, clock);
    return STATUS_OK;
}

int train_step(
    int64_t n, int64_t k3, int64_t stride, const double *pinned,
    double *pinned_grads, const double *critical, double *critical_grads,
    const int64_t *ws, int64_t m, const int64_t *loads, int64_t num_loads,
    const int64_t *cached, int64_t num_cached, const int64_t *stores,
    int64_t num_stores, const int64_t *carried, int64_t num_carried,
    const int64_t *prev, int64_t mp, const double *prev_sh,
    const double *prev_opacity, const int64_t *carried_in,
    int64_t num_carried_in, const double *carried_sh,
    const double *carried_opacity, const double *planes, int64_t degree,
    const double *params, int64_t width, int64_t height, int64_t ts,
    int64_t sub, int64_t records, const double *target, const double *uy,
    const double *uy2_c1, const double *vy_c2, const double *taps,
    int64_t size, double ssim_lambda, double c1, double c2, double batch,
    double *block, double *carry, double *scratch, int64_t *work,
    double *kept, int64_t *ikept, uint8_t *clamp, double *rec_f,
    int32_t *rec_p, int64_t *rec_end, const int64_t *caps, double *image,
    double *trans, double *d_image, double *grads, double *value,
    int64_t *out)
{
    int64_t clock = now_ns();
    clear_stamps(out);
    return clm_step(
        n, k3, stride, pinned, pinned_grads, critical, critical_grads, ws, m,
        loads, num_loads, cached, num_cached, stores, num_stores, carried,
        num_carried, prev, mp, prev_sh, prev_opacity, carried_in,
        num_carried_in, carried_sh, carried_opacity, planes, degree, params,
        width, height, ts, sub, records, target, uy, uy2_c1, vy_c2, taps, size,
        ssim_lambda, c1, c2, batch, block, carry, scratch, work, kept, ikept,
        clamp, rec_f, rec_p, rec_end, caps, image, trans, d_image, grads,
        value, out, &clock);
}

/* into[rows[i]] += g[i] over ``width`` values a row, for i < m (rows NULL:
 * into[i] += g[i], one pass). */
static void add_rows(
    double *into, const double *g, const int64_t *rows, int64_t m, int64_t width)
{
    if (into == NULL)
        return;
    if (rows == NULL) {
        add_into(into, g, m * width);
        return;
    }
    for (int64_t i = 0; i < m; i++)
        add_into(into + rows[i] * width, g + i * width, width);
}

int view_train(
    int64_t m, const int64_t *rows, int64_t n, const double *positions,
    const double *log_scales, const double *quats, const double *sh,
    const double *logits, int64_t k_stored, double *into_positions,
    double *into_log_scales, double *into_quats, double *into_sh,
    double *into_logits, const double *planes, int64_t degree,
    const double *params, int64_t width, int64_t height, int64_t ts,
    int64_t sub, int64_t records, const double *target, const double *uy,
    const double *uy2_c1, const double *vy_c2, const double *taps,
    int64_t size, double ssim_lambda, double c1, double c2, double batch,
    double *sh_rows, double *scratch, int64_t *work, double *kept,
    int64_t *ikept, uint8_t *clamp, double *rec_f, int32_t *rec_p,
    int64_t *rec_end, const int64_t *caps, double *image, double *trans,
    double *d_image, double *grads, double *value, int64_t *out)
{
    int64_t clock = now_ns();
    clear_stamps(out);
    const int failed = view_step(
        m, rows, n, positions, log_scales, quats, sh, logits, k_stored,
        planes, degree, params, width, height, ts, sub, records, target, uy,
        uy2_c1, vy_c2, taps, size, ssim_lambda, c1, c2, batch, sh_rows,
        scratch, work, kept, ikept, clamp, rec_f, rec_p, rec_end, caps, image,
        trans, d_image, grads, value, out, &clock);
    if (failed)
        return failed;
    const int64_t k3 = 3 * k_stored;
    add_rows(into_positions, grads, rows, m, 3);
    add_rows(into_log_scales, grads + 3 * m, rows, m, 3);
    add_rows(into_quats, grads + 6 * m, rows, m, 4);
    add_rows(into_sh, grads + 10 * m, rows, m, k3);
    add_rows(into_logits, grads + 10 * m + k3 * m, rows, m, 1);
    lap(out, OUT_RETIRE_NS, &clock);
    return STATUS_OK;
}

/* ======================================================================
 * A CLM batch in one call (engines/clm.py, CLMEngine._execute_plan; paper
 * §4.2, §5.2-5.4).  Its reference is clm.train_batch, the node walk of
 * planning/lowering.lower_batch: the touched union's gradient rows zeroed in
 * both stores, then node after node of ``program`` ((kind, index) pairs,
 * NODE_*): a step is clm_step, an adam node adam_rows over that chunk of the
 * pinned store, the critical node adam_rows over the touched union of the
 * critical store.  Each is the function the one-op-a-call path runs, in the
 * walk's order, so the two are bit-identical.
 *
 * The plan's row vectors are one buffer: vector v is rows[offsets[v] ..
 * offsets[v + 1]), step i's five PLAN_VECTORS from 5 i (working set, loads,
 * cached, stores, carried), then the touched union, then the chunks.  Step
 * i's view is row i of ``views`` (VIEW_* slots: addresses of the view's
 * planes, params, target and moments, its size), its loss value[i].  Step i
 * writes half i & 1 of ``blocks`` and of ``carries`` and reads the other, the
 * step before's.
 *
 * Nothing is written before the whole plan is checked (STAGE_PLAN) and, when
 * ``start`` is 0, both optimizers' steps are checked against the tables
 * (STATUS_TABLES_SHORT).  A step whose render outgrows its arenas returns
 * STATUS_ARENA_SHORT with its node at out[OUT_NODE], nothing of it written:
 * the caller grows them and calls again from that node (``start``).  Every
 * stage's nanoseconds are added to its OUT_*_NS slot (the plan check to
 * OUT_ZERO_NS), and out[OUT_TOTAL_NS] gains the call's own.
 * ====================================================================== */

#define VECTOR(v) (rows + offsets[v])
#define LENGTH(v) (offsets[(v) + 1] - offsets[v])

/* Position of ``key`` in the strictly increasing s[0 .. ns); -1 when it is
 * not there. */
static int64_t find(const int64_t *s, int64_t ns, int64_t key)
{
    int64_t lo = 0, hi = ns;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (s[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < ns && s[lo] == key ? lo : -1;
}

/* Whether rows[0 .. count) are distinct members of the strictly increasing
 * touched[0 .. u): each row's place in it is taken once. */
static int distinct_members(
    const int64_t *rows, int64_t count, const int64_t *touched, int64_t u)
{
    uint8_t *taken = calloc((size_t)u + 1, 1);
    if (taken == NULL)
        return STATUS_NO_MEMORY;
    int status = STATUS_OK;
    for (int64_t k = 0; k < count && status == STATUS_OK; k++) {
        const int64_t at = find(touched, u, rows[k]);
        if (at < 0 || taken[at]++)
            status = STATUS_VIOLATED;
    }
    free(taken);
    return status;
}

/* Whether the node list runs every step once, in order, each chunk after
 * its step and the critical node last; the offsets cut ``total`` rows in
 * order; each step's vectors are what assemble_rows and retire_rows take: a
 * working set, members of it, cached rows of the step before's; and the
 * chunks are distinct rows of the touched union, an index set, so no row is
 * stepped twice.  That a chunk's rows are in no later step's working set and
 * that every working set is in the touched union is the planner's invariant
 * (planning/adam_overlap.adam_chunks), not checked here. */
static int check_plan(
    const int64_t *program, int64_t nodes, const int64_t *rows,
    int64_t total, const int64_t *offsets, int64_t count, int64_t n)
{
    const int64_t vectors = PLAN_VECTORS * count + 1 + count;
    if (offsets[0] != 0 || offsets[vectors] != total)
        return STATUS_VIOLATED;
    for (int64_t v = 0; v < vectors; v++)
        if (LENGTH(v) < 0)
            return STATUS_VIOLATED;
    if (!in_range(rows, total, n))
        return STATUS_OUT_OF_RANGE;
    int64_t steps = 0;
    for (int64_t j = 0; j < nodes; j++) {
        const int64_t kind = program[2 * j], index = program[2 * j + 1];
        const int fits = kind == NODE_STEP ? index == steps++
                       : kind == NODE_ADAM ? index >= 0 && index < steps
                       : kind == NODE_CRITICAL_ADAM && j == nodes - 1;
        if (!fits || steps > count)
            return STATUS_VIOLATED;
    }
    if (steps != count || (count && program[2 * nodes - 2] != NODE_CRITICAL_ADAM))
        return STATUS_VIOLATED;
    for (int64_t i = 0; i < count; i++) {
        const int64_t v = PLAN_VECTORS * i, m = LENGTH(v);
        const int64_t *ws = VECTOR(v);
        if (!index_set(ws, m, n))  /* in range: not sorted or a repeat */
            return STATUS_VIOLATED;
        for (int64_t k = 1; k < PLAN_VECTORS; k++)
            if (!members(VECTOR(v + k), LENGTH(v + k), ws, m))
                return STATUS_VIOLATED;
        const int64_t before = v - PLAN_VECTORS;
        if (!members(VECTOR(v + 2), LENGTH(v + 2), i ? VECTOR(before) : ws, i ? LENGTH(before) : 0) ||
            (i && !members(VECTOR(before + 4), LENGTH(before + 4), ws, m)))
            return STATUS_VIOLATED;
    }
    const int64_t last = PLAN_VECTORS * count, u = LENGTH(last);
    if (!index_set(VECTOR(last), u, n))
        return STATUS_VIOLATED;
    return distinct_members(
        VECTOR(last + 1), offsets[vectors] - offsets[last + 1], VECTOR(last), u);
}

#define BATCH_STAGE(name, call)                                             \
    do {                                                                    \
        status = (call);                                                    \
        if (status) {                                                       \
            out[OUT_STAGE] = STAGE_##name;                                  \
            out[OUT_STATUS] = status;                                       \
            goto done;                                                      \
        }                                                                   \
    } while (0)

static inline const double *at_address(int64_t address)
{
    return (const double *)(intptr_t)address;
}

/* An adam node's status: past the plan check and the tables checked on
 * entry no row can step past the tables (each is bumped once), so a short
 * table there is reported as a violation, never as TABLES_SHORT, which the
 * caller would answer by running the batch again over what was written. */
static inline int chunk_status(int status)
{
    return status == STATUS_TABLES_SHORT ? STATUS_VIOLATED : status;
}

int train_batch(
    int64_t n, int64_t k3, int64_t stride, double *pinned,
    double *pinned_grads, double *critical, double *critical_grads,
    const int64_t *program, int64_t nodes, const int64_t *rows,
    int64_t total, const int64_t *offsets, int64_t count,
    const int64_t *views, int64_t degree, int64_t ts, int64_t sub,
    int64_t records, double ssim_lambda, double c1, double c2, double batch,
    double *m_nc, double *v_nc, int64_t *steps_nc, const double *lr_nc,
    double *m_c, double *v_c, int64_t *steps_c, const double *lr_c,
    double beta1, double beta2, double eps, const double *bc1,
    const double *rsqrt_bc2, int64_t table, double *blocks,
    int64_t block_size, double *carries, int64_t carry_size,
    double *scratch, int64_t *work, double *kept, int64_t *ikept,
    uint8_t *clamp, double *rec_f, int32_t *rec_p, int64_t *rec_end,
    const int64_t *caps, double *image, double *trans, double *d_image,
    double *grads, double *value, int64_t start, int64_t *out)
{
    int64_t clock = now_ns();
    const int64_t entry = clock;
    if (start == 0) {
        clear_stamps(out);
        out[OUT_TOTAL_NS] = 0;
    }
    out[OUT_NODE] = -1;
    int status = STATUS_OK;
    BATCH_STAGE(PLAN, check_plan(program, nodes, rows, total, offsets, count, n));
    const int64_t last = PLAN_VECTORS * count, u = LENGTH(last);
    const int64_t *touched = VECTOR(last);
    if (start == 0) {
        /* The chunks are the touched union's rows, each bumped once. */
        for (int64_t k = 0; k < u; k++) {
            const int64_t a = steps_nc[touched[k]] + 1, b = steps_c[touched[k]] + 1;
            if (a < 0 || a >= table || b < 0 || b >= table) {
                status = STATUS_TABLES_SHORT;
                goto done;
            }
        }
        zero_rows(n, stride, pinned_grads, touched, u);
        zero_rows(n, 10, critical_grads, touched, u);
        lap(out, OUT_ZERO_NS, &clock);
    }
    for (int64_t j = start; j < nodes; j++) {
        const int64_t index = program[2 * j + 1];
        if (program[2 * j] == NODE_STEP) {
            const int64_t v = PLAN_VECTORS * index, b = v - PLAN_VECTORS;
            const int64_t mp = index ? LENGTH(b) : 0, in = index ? LENGTH(b + 4) : 0;
            double *block = blocks + (index & 1) * block_size;
            double *carry = carries + (index & 1) * carry_size;
            const double *held = blocks + (~index & 1) * block_size;
            const double *carried_in = carries + (~index & 1) * carry_size;
            const int64_t *view = views + VIEW_SLOTS * index;
            status = clm_step(
                n, k3, stride, pinned, pinned_grads, critical, critical_grads,
                VECTOR(v), LENGTH(v), VECTOR(v + 1), LENGTH(v + 1), VECTOR(v + 2),
                LENGTH(v + 2), VECTOR(v + 3), LENGTH(v + 3), VECTOR(v + 4),
                LENGTH(v + 4), index ? VECTOR(b) : NULL, mp, held, held + mp * k3,
                index ? VECTOR(b + 4) : NULL, in, carried_in, carried_in + in * k3,
                at_address(view[VIEW_PLANES]), degree, at_address(view[VIEW_PARAMS]),
                view[VIEW_WIDTH], view[VIEW_HEIGHT], ts, sub, records,
                at_address(view[VIEW_TARGET]), at_address(view[VIEW_UY]),
                at_address(view[VIEW_UY2_C1]), at_address(view[VIEW_VY_C2]),
                at_address(view[VIEW_TAPS]), view[VIEW_SIZE], ssim_lambda, c1,
                c2, batch, block, carry, scratch, work, kept, ikept, clamp, rec_f,
                rec_p, rec_end, caps, image, trans, d_image, grads, value + index,
                out, &clock);
            if (status) {
                out[OUT_NODE] = j;
                goto done;
            }
        } else if (program[2 * j] == NODE_ADAM) {
            const int64_t chunk = last + 1 + index;
            BATCH_STAGE(ADAM_ROWS, chunk_status(adam_rows(
                pinned, stride, pinned_grads, stride, m_nc, v_nc, stride, steps_nc,
                n, VECTOR(chunk), LENGTH(chunk), lr_nc, beta1, beta2, eps, bc1,
                rsqrt_bc2, table, 1)));
            lap(out, OUT_ADAM_NS, &clock);
        } else {
            BATCH_STAGE(ADAM_ROWS, chunk_status(adam_rows(
                critical, 10, critical_grads, 10, m_c, v_c, 10, steps_c, n,
                touched, u, lr_c, beta1, beta2, eps, bc1, rsqrt_bc2, table, 1)));
            lap(out, OUT_CRITICAL_ADAM_NS, &clock);
        }
    }
done:
    out[OUT_TOTAL_NS] += now_ns() - entry;
    return status;
}
#undef BATCH_STAGE
#undef VECTOR
#undef LENGTH
#undef STAGE

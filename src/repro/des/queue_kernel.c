/*
 * Compiled event loop for two-server work-queue cohort regions.
 *
 * Replays exactly what CohortEngine._run_two computes for a work-queue
 * region over two ScalarBatchServers (see batch.py), operation for
 * operation: the same IEEE-754 double operations in the same order, jobs
 * kept in insertion order (the dict order of ScalarBatchServer._jobs),
 * completion batches sorted by arrival sequence, FIFO lock grants drained
 * after each batch, and lock statistics reported in first-touch order
 * with their depth-histogram buckets in insertion order.  Build with
 * -ffp-contract=off and without fast-math so no operation is fused or
 * reassociated.
 *
 * Eligible regions (anything else is declined and the caller runs the
 * interpreted loop): every segment is SRV/SLEEP/ACQ/REL, every SRV runs
 * on server 0 or 1, and every positive-demand job on a server carries the
 * same cap, so both servers stay in their uniform-cap lane for the whole
 * region.
 *
 * Entry point, loaded with ctypes.PyDLL (the GIL is held throughout):
 *
 *   qk_run(programs, queue, own, capacity0, capacity1, start, out)
 *
 * returns 0 (declined), 1 (done; results appended to the list `out`),
 * 2 (deadlock) or -1 (Python exception set).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if FLT_EVAL_METHOD != 0
#error "double operations must round to double, as Python's do"
#endif

#define EPS 1e-9
#define INF HUGE_VAL

enum { OP_SRV = 0, OP_PAR = 1, OP_SLEEP = 2, OP_ACQ = 3, OP_REL = 4 };

/* one compiled segment: SRV (server, demand), SLEEP (-, seconds),
 * ACQ/REL (lock id, -); no-op segments are dropped at compile time */
typedef struct {
    int op;
    int arg;
    double x;
} Seg;

typedef struct {
    double capacity;
    double cap;        /* the region's single per-job cap on this server */
    double due, busy, served, last, urate, m;
    int dirty, m_valid;
    int n;             /* live jobs, in insertion order below */
    double *rem;
    int64_t *seq;
    int *slot;
} Server;

typedef struct {
    int64_t seq;
    int tid;
} Done;

typedef struct {
    double t;
    int64_t seq;
    int tid;
} Timer;

typedef struct {
    int holder;        /* -1: free */
    int touched;
    int64_t waits;
    double wait_time;
    int max_depth;
    int qlen, qhead;   /* FIFO ring of (tid, t_enqueue) */
    int *qtid;
    double *qt;
    int64_t hist[64];  /* by bucket exponent */
    int hist_order[64];
    int n_hist;
} Lock;

typedef struct {
    const Seg *segs;
    int len, idx;
} Thread;

typedef struct {
    Server srv[2];
    Thread *th;
    int n_threads;
    int ring;          /* n_threads + 1: the size of every FIFO ring */
    const Seg *segs;   /* every compiled segment, list after list */
    const int *item_off, *item_len;  /* queue item j: segs[off[j]...] */
    int n_items, qhead;
    Lock *locks;
    int *lock_order;
    int n_lock_order;
    Timer *heap;
    int heap_n;
    int *grants;       /* FIFO ring */
    int g_head, g_len;
    double now;
    int64_t seq, events, stepped_grants;
    int n_done;
    double *done_times;
} Engine;

/* ---------------------------------------------------------------------
 * ScalarBatchServer, uniform-cap lane, weight-1 jobs
 * ------------------------------------------------------------------- */
static void srv_advance_to(Server *s, double now)
{
    double dt = now - s->last;
    s->last = now;
    if (dt <= 0 || s->n == 0)
        return;
    double r = s->urate;
    if (r != 0.0) {
        double rdt = r * dt;
        for (int i = 0; i < s->n; i++)
            s->rem[i] -= rdt;
        s->served += rdt * (double)s->n;
        if (s->m_valid)
            s->m -= rdt;
    } else {
        /* the per-job-rate lane: every per-job rate is 0.0 here, so
         * remaining and served work are unchanged */
        s->m_valid = 0;
    }
    s->busy += dt;
}

static void srv_add(Server *s, int slot, double demand, int64_t seq,
                    double now)
{
    if (now != s->last)
        srv_advance_to(s, now);
    int k = s->n++;
    s->rem[k] = demand;
    s->seq[k] = seq;
    s->slot[k] = slot;
    if (s->m_valid && demand < s->m)
        s->m = demand;
    s->dirty = 1;
}

/* the minimum and second-smallest remaining work, and the minimum's
 * index (the first one, as the interpreted scan keeps it) */
static void srv_frontier(const Server *s, double *m, double *m2, int *im)
{
    for (int i = 0; i < s->n; i++) {
        double v = s->rem[i];
        if (v < *m) {
            *m2 = *m;
            *m = v;
            *im = i;
        } else if (v < *m2) {
            *m2 = v;
        }
    }
}

/* completed jobs at `now`, written to out; returns how many */
static int srv_finish(Server *s, double now, Done *out)
{
    double dt = now - s->last;
    s->last = now;
    double m = INF, m2 = INF;
    int im = -1;
    int n = s->n;
    if (dt > 0) {
        double r = s->urate;
        if (r != 0.0) {
            double rdt = r * dt;
            s->served += rdt * (double)n;
            for (int i = 0; i < n; i++)
                s->rem[i] -= rdt;
        }
        s->busy += dt;
    }
    srv_frontier(s, &m, &m2, &im);
    double threshold = m * (1.0 + EPS);
    if (threshold < EPS)
        threshold = EPS;
    s->dirty = 1;
    if (m2 > threshold) {
        /* frontier fast path: only the minimum job completes */
        out[0].seq = s->seq[im];
        out[0].tid = s->slot[im];
        int tail = n - im - 1;
        memmove(s->rem + im, s->rem + im + 1, tail * sizeof(double));
        memmove(s->seq + im, s->seq + im + 1, tail * sizeof(int64_t));
        memmove(s->slot + im, s->slot + im + 1, tail * sizeof(int));
        s->n = n - 1;
        s->m = m2;
        s->m_valid = s->n > 0;
        return 1;
    }
    int k = 0, w = 0;
    double mk = INF;
    for (int i = 0; i < n; i++) {
        if (s->rem[i] <= threshold) {
            out[k].seq = s->seq[i];
            out[k].tid = s->slot[i];
            k++;
            continue;
        }
        if (s->rem[i] < mk)
            mk = s->rem[i];
        s->rem[w] = s->rem[i];
        s->seq[w] = s->seq[i];
        s->slot[w] = s->slot[i];
        w++;
    }
    s->n = w;
    s->m = mk;
    s->m_valid = w > 0;
    return k;
}

static void srv_flush(Server *s)
{
    if (!s->dirty)
        return;
    s->dirty = 0;
    if (s->n == 0) {
        s->due = INF;
        s->urate = 0.0;
        s->m_valid = 0;
        return;
    }
    double share = s->capacity / (double)s->n;
    double rate = s->cap <= share ? s->cap : share;
    s->urate = rate;
    if (!s->m_valid) {
        double m = INF;
        for (int i = 0; i < s->n; i++)
            if (s->rem[i] < m)
                m = s->rem[i];
        s->m = m;
        s->m_valid = 1;
    }
    double delay = rate > 0 ? s->m / rate : INF;
    if (delay < 0.0)
        delay = 0.0;
    s->due = s->last + delay;
}

/* ---------------------------------------------------------------------
 * timers: a binary min-heap on (t, seq), like the (t, seq, tid) tuples
 * ------------------------------------------------------------------- */
static int timer_less(const Timer *a, const Timer *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static void heap_push(Engine *E, double t, int64_t seq, int tid)
{
    Timer *h = E->heap;
    int i = E->heap_n++;
    Timer x = {t, seq, tid};
    while (i > 0) {
        int p = (i - 1) / 2;
        if (!timer_less(&x, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = x;
}

static Timer heap_pop(Engine *E)
{
    Timer *h = E->heap;
    Timer top = h[0];
    int n = --E->heap_n;
    Timer x = h[n];
    int i = 0;
    for (;;) {
        int c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && timer_less(&h[c + 1], &h[c]))
            c++;
        if (!timer_less(&h[c], &x))
            break;
        h[i] = h[c];
        i = c;
    }
    if (n > 0)
        h[i] = x;
    return top;
}

/* ---------------------------------------------------------------------
 * locks (CohortEngine._lock / _enqueue / _grant_next, weight 1)
 * ------------------------------------------------------------------- */
static Lock *lock_touch(Engine *E, int id)
{
    Lock *lk = &E->locks[id];
    if (!lk->touched) {
        lk->touched = 1;
        E->lock_order[E->n_lock_order++] = id;
    }
    return lk;
}

static void lock_enqueue(Engine *E, Lock *lk, int tid, double now)
{
    /* contended: counted at request time, like Resource */
    int depth = lk->qlen + 1;
    lk->waits += 1;
    if (depth > lk->max_depth)
        lk->max_depth = depth;
    int b = 0;  /* power-of-two bucket: 1 << (depth.bit_length() - 1) */
    while ((depth >> (b + 1)) != 0)
        b++;
    if (lk->hist[b]++ == 0)
        lk->hist_order[lk->n_hist++] = b;
    int slot = (lk->qhead + lk->qlen) % E->ring;
    lk->qtid[slot] = tid;
    lk->qt[slot] = now;
    lk->qlen++;
}

static void lock_grant_next(Engine *E, Lock *lk, double now)
{
    int cid = lk->qtid[lk->qhead];
    lk->wait_time += now - lk->qt[lk->qhead];
    lk->qhead = (lk->qhead + 1) % E->ring;
    lk->qlen--;
    lk->holder = cid;
    E->grants[(E->g_head + E->g_len) % E->ring] = cid;
    E->g_len++;
    E->stepped_grants++;
}

/* ---------------------------------------------------------------------
 * CohortEngine._advance_thread for weight-1 queue workers
 * ------------------------------------------------------------------- */
static void advance(Engine *E, int tid)
{
    Thread *th = &E->th[tid];
    const Seg *segs = th->segs;
    int len = th->len, i = th->idx;
    double now = E->now;
    for (;;) {
        if (i >= len) {
            if (E->qhead < E->n_items) {
                int item = E->qhead++;
                segs = th->segs = E->segs + E->item_off[item];
                len = th->len = E->item_len[item];
                i = 0;
                continue;
            }
            th->idx = i;
            E->done_times[E->n_done++] = now;
            return;
        }
        const Seg *g = &segs[i++];
        if (g->op == OP_SRV) {
            srv_add(&E->srv[g->arg], tid, g->x, E->seq++, now);
            th->idx = i;
            return;
        }
        if (g->op == OP_SLEEP) {
            heap_push(E, now + g->x, E->seq++, tid);
            th->idx = i;
            return;
        }
        Lock *lk = lock_touch(E, g->arg);
        if (g->op == OP_ACQ) {
            if (lk->holder < 0) {
                lk->holder = tid;
                continue;
            }
            lock_enqueue(E, lk, tid, now);
            th->idx = i;
            return;
        }
        lk->holder = -1;  /* OP_REL: hand off to the next waiter */
        if (lk->qlen)
            lock_grant_next(E, lk, now);
    }
}

static void drain_grants(Engine *E)
{
    while (E->g_len) {
        int tid = E->grants[E->g_head];
        E->g_head = (E->g_head + 1) % E->ring;
        E->g_len--;
        advance(E, tid);
    }
}

/* CohortEngine.run's bootstrap followed by _run_two; -1 on deadlock */
static int run_loop(Engine *E, Done *batch)
{
    Server *s0 = &E->srv[0], *s1 = &E->srv[1];
    int n = E->n_threads;
    /* threads start in creation order (DES bootstrap order) */
    for (int tid = 0; tid < n; tid++)
        advance(E, tid);
    drain_grants(E);
    srv_flush(s0);
    srv_flush(s1);
    while (E->n_done < n) {
        double d0 = s0->due, d1 = s1->due;
        double t = d0 < d1 ? d0 : d1;
        if (E->heap_n && E->heap[0].t < t)
            t = E->heap[0].t;
        if (t == INF)
            return -1;
        E->events++;
        E->now = t;
        int nb = 0;
        if (d0 <= t)
            nb += srv_finish(s0, t, batch + nb);
        if (d1 <= t)
            nb += srv_finish(s1, t, batch + nb);
        while (E->heap_n && E->heap[0].t <= t) {
            Timer x = heap_pop(E);
            batch[nb].seq = x.seq;
            batch[nb].tid = x.tid;
            nb++;
        }
        /* job-arrival order; sequence numbers are unique */
        for (int a = 1; a < nb; a++) {
            Done x = batch[a];
            int b = a - 1;
            while (b >= 0 && batch[b].seq > x.seq) {
                batch[b + 1] = batch[b];
                b--;
            }
            batch[b + 1] = x;
        }
        for (int a = 0; a < nb; a++)
            advance(E, batch[a].tid);
        drain_grants(E);
        srv_flush(s0);
        srv_flush(s1);
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * compiling the Python segment lists
 * ------------------------------------------------------------------- */

/* a Python float, or an int that converts exactly; 0 if neither */
static int as_double(PyObject *o, double *out)
{
    if (PyFloat_Check(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 1;
    }
    if (PyLong_CheckExact(o)) {
        int overflow = 0;
        long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (overflow || v > (1LL << 53) || v < -(1LL << 53))
            return 0;
        *out = (double)v;
        return 1;
    }
    return 0;
}

typedef struct {
    Seg *segs;
    int n_segs;
    double cap[2];
    int cap_set[2];
    PyObject *lock_ids;    /* name -> id */
    PyObject *lock_names;  /* id -> name */
    int own;
} Compiler;

/* compile one SRV tuple; 1 emitted, 2 a no-op, 0 declined */
static int compile_srv(Compiler *C, PyObject *seg, Seg *g)
{
    double demand, cap;
    if (PyTuple_GET_SIZE(seg) != 4
            || !as_double(PyTuple_GET_ITEM(seg, 2), &demand))
        return 0;
    if (!(demand > 0))
        return 2;
    PyObject *sid_o = PyTuple_GET_ITEM(seg, 1);
    PyObject *cap_o = PyTuple_GET_ITEM(seg, 3);
    long sid;
    if (sid_o == Py_None)
        sid = C->own;
    else if (!PyLong_CheckExact(sid_o)
             || (sid = PyLong_AsLong(sid_o)) == -1) {
        PyErr_Clear();  /* -1 or too large: not a server id here */
        return 0;
    }
    if (cap_o == Py_None)
        cap = INF;
    else if (!as_double(cap_o, &cap))
        return 0;
    if ((sid != 0 && sid != 1) || !(cap > 0))
        return 0;
    if (!C->cap_set[sid]) {
        C->cap[sid] = cap;
        C->cap_set[sid] = 1;
    } else if (cap != C->cap[sid]) {
        return 0;  /* mixed caps leave the uniform-cap lane */
    }
    g->op = OP_SRV;
    g->arg = (int)sid;
    g->x = demand;
    return 1;
}

/* compile one ACQ/REL tuple; 1 emitted, 0 declined, -1 error */
static int compile_lock(Compiler *C, PyObject *seg, int op, Seg *g)
{
    PyObject *name = PyTuple_GET_ITEM(seg, 1);
    PyObject *id = PyDict_GetItemWithError(C->lock_ids, name);
    if (id == NULL) {
        if (PyErr_Occurred()) {  /* an unhashable name */
            PyErr_Clear();
            return 0;
        }
        id = PyLong_FromSsize_t(PyList_GET_SIZE(C->lock_names));
        if (id == NULL)
            return -1;
        int rc = PyDict_SetItem(C->lock_ids, name, id);
        Py_DECREF(id);  /* the dict keeps it alive */
        if (rc < 0 || PyList_Append(C->lock_names, name) < 0)
            return -1;
    }
    g->op = op;
    g->arg = (int)PyLong_AsLong(id);
    g->x = 0.0;
    return 1;
}

/* compile one segment list into segs[*off, *off + *len); 1 ok,
 * 0 declined, -1 error */
static int compile_list(Compiler *C, PyObject *list, int *off, int *len)
{
    PyObject *fast = PySequence_Fast(list, "segment list");
    if (fast == NULL) {
        PyErr_Clear();
        return 0;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    *off = C->n_segs;
    int rc = 1;
    for (Py_ssize_t j = 0; j < n && rc > 0; j++) {
        PyObject *seg = items[j];
        Seg *g = &C->segs[C->n_segs];
        if (!PyTuple_Check(seg) || PyTuple_GET_SIZE(seg) < 2
                || !PyLong_CheckExact(PyTuple_GET_ITEM(seg, 0))) {
            rc = 0;
            break;
        }
        long op = PyLong_AsLong(PyTuple_GET_ITEM(seg, 0));
        if (op == -1)
            PyErr_Clear();  /* too large: declined below */
        if (op == OP_SRV) {
            rc = compile_srv(C, seg, g);
        } else if (op == OP_SLEEP) {
            if (!as_double(PyTuple_GET_ITEM(seg, 1), &g->x))
                rc = 0;
            else if (!(g->x > 0))
                rc = 2;
            else
                g->op = OP_SLEEP;
        } else if (op == OP_ACQ || op == OP_REL) {
            rc = compile_lock(C, seg, (int)op, g);
        } else {
            rc = 0;  /* PAR or an unknown opcode */
        }
        if (rc == 1)
            C->n_segs++;
    }
    *len = C->n_segs - *off;
    Py_DECREF(fast);
    return rc > 0 ? 1 : rc;
}

/* ---------------------------------------------------------------------
 * results
 * ------------------------------------------------------------------- */
static int append_steal(PyObject *out, PyObject *o)
{
    if (o == NULL)
        return -1;
    int rc = PyList_Append(out, o);
    Py_DECREF(o);
    return rc;
}

/* (name, waits, wait_time, max_depth, [(bucket, count), ...], holder) */
static PyObject *lock_record(const Lock *lk, PyObject *name)
{
    PyObject *hist = PyList_New(lk->n_hist);
    if (hist == NULL)
        return NULL;
    for (int j = 0; j < lk->n_hist; j++) {
        int b = lk->hist_order[j];
        PyObject *pair = Py_BuildValue("(LL)", 1LL << b,
                                       (long long)lk->hist[b]);
        if (pair == NULL) {
            Py_DECREF(hist);
            return NULL;
        }
        PyList_SET_ITEM(hist, j, pair);
    }
    PyObject *holder = lk->holder < 0 ? Py_NewRef(Py_None)
                                      : PyLong_FromLong(lk->holder);
    if (holder == NULL) {
        Py_DECREF(hist);
        return NULL;
    }
    return Py_BuildValue("(OLdiNN)", name, (long long)lk->waits,
                         lk->wait_time, lk->max_depth, hist, holder);
}

static int emit(const Engine *E, PyObject *names, PyObject *out)
{
    PyObject *done = PyList_New(E->n_done);
    PyObject *locks = PyList_New(0);
    if (done == NULL || locks == NULL)
        goto fail;
    for (int i = 0; i < E->n_done; i++) {
        PyObject *f = PyFloat_FromDouble(E->done_times[i]);
        if (f == NULL)
            goto fail;
        PyList_SET_ITEM(done, i, f);
    }
    for (int j = 0; j < E->n_lock_order; j++) {
        int id = E->lock_order[j];
        if (append_steal(locks, lock_record(&E->locks[id],
                                            PyList_GET_ITEM(names, id))) < 0)
            goto fail;
    }
    if (append_steal(out, PyFloat_FromDouble(E->now)) < 0
            || PyList_Append(out, done) < 0
            || append_steal(out, PyFloat_FromDouble(E->srv[0].busy)) < 0
            || append_steal(out, PyFloat_FromDouble(E->srv[0].served)) < 0
            || append_steal(out, PyFloat_FromDouble(E->srv[1].busy)) < 0
            || append_steal(out, PyFloat_FromDouble(E->srv[1].served)) < 0
            || append_steal(out, PyLong_FromLongLong(E->events)) < 0
            || append_steal(out,
                            PyLong_FromLongLong(E->stepped_grants)) < 0
            || PyList_Append(out, locks) < 0)
        goto fail;
    Py_DECREF(done);
    Py_DECREF(locks);
    return 0;
fail:
    Py_XDECREF(done);
    Py_XDECREF(locks);
    return -1;
}

/* ---------------------------------------------------------------------
 * entry point
 * ------------------------------------------------------------------- */
static void engine_free(Engine *E)
{
    for (int s = 0; s < 2; s++) {
        PyMem_Free(E->srv[s].rem);
        PyMem_Free(E->srv[s].seq);
        PyMem_Free(E->srv[s].slot);
    }
    PyMem_Free(E->th);
    PyMem_Free(E->locks);
    PyMem_Free(E->lock_order);
    PyMem_Free(E->heap);
    PyMem_Free(E->grants);
    PyMem_Free(E->done_times);
}

/* allocate the engine for n threads and n_locks locks; 0 ok, -1 out
 * of memory */
static int engine_alloc(Engine *E, int n, int n_locks, int **lock_q,
                        double **lock_qt)
{
    int ring = n + 1;
    E->n_threads = n;
    E->ring = ring;
    E->th = PyMem_Calloc(ring, sizeof(Thread));
    E->locks = PyMem_Calloc(n_locks + 1, sizeof(Lock));
    E->lock_order = PyMem_Malloc((n_locks + 1) * sizeof(int));
    E->heap = PyMem_Malloc(ring * sizeof(Timer));
    E->grants = PyMem_Malloc(ring * sizeof(int));
    E->done_times = PyMem_Malloc(ring * sizeof(double));
    *lock_q = PyMem_Malloc((size_t)(n_locks + 1) * ring * sizeof(int));
    *lock_qt = PyMem_Malloc((size_t)(n_locks + 1) * ring * sizeof(double));
    int ok = E->th && E->locks && E->lock_order && E->heap && E->grants && E->done_times
        && *lock_q && *lock_qt;
    for (int s = 0; s < 2; s++) {
        E->srv[s].rem = PyMem_Malloc(ring * sizeof(double));
        E->srv[s].seq = PyMem_Malloc(ring * sizeof(int64_t));
        E->srv[s].slot = PyMem_Malloc(ring * sizeof(int));
        ok = ok && E->srv[s].rem && E->srv[s].seq && E->srv[s].slot;
    }
    if (!ok)
        return -1;
    for (int l = 0; l < n_locks; l++) {
        E->locks[l].holder = -1;
        E->locks[l].qtid = *lock_q + (size_t)l * ring;
        E->locks[l].qt = *lock_qt + (size_t)l * ring;
    }
    return 0;
}

int qk_run(PyObject *programs, PyObject *queue, int own, double capacity0,
           double capacity1, double start, PyObject *out)
{
    int rc = 0, n = 0, n_items = 0;
    Engine E;
    Compiler C;
    Done *batch = NULL;
    int *off = NULL, *len = NULL, *lock_q = NULL;
    double *lock_qt = NULL;
    PyObject *progs = NULL, *items = NULL;
    PyObject **lists[2];
    Py_ssize_t total = 0;
    memset(&E, 0, sizeof E);
    memset(&C, 0, sizeof C);
    C.own = own;
    progs = PySequence_Fast(programs, "programs");
    if (progs != NULL)
        items = PySequence_Fast(queue, "queue");
    C.lock_ids = PyDict_New();
    C.lock_names = PyList_New(0);
    if (items == NULL || C.lock_ids == NULL || C.lock_names == NULL) {
        rc = -1;
        goto done;
    }
    n = (int)PySequence_Fast_GET_SIZE(progs);
    n_items = (int)PySequence_Fast_GET_SIZE(items);
    lists[0] = PySequence_Fast_ITEMS(progs);
    lists[1] = PySequence_Fast_ITEMS(items);
    for (int k = 0; k < 2; k++)
        for (int j = 0; j < (k ? n_items : n); j++) {
            Py_ssize_t sz = PyObject_Length(lists[k][j]);
            if (sz < 0) {
                PyErr_Clear();
                goto done;  /* declined */
            }
            total += sz;
        }
    /* segment lists: the n thread programs, then the queue items */
    C.segs = PyMem_Malloc((total + 1) * sizeof(Seg));
    off = PyMem_Malloc((size_t)(n + n_items + 1) * sizeof(int));
    len = PyMem_Malloc((size_t)(n + n_items + 1) * sizeof(int));
    if (C.segs == NULL || off == NULL || len == NULL) {
        PyErr_NoMemory();
        rc = -1;
        goto done;
    }
    for (int k = 0, slot = 0; k < 2; k++)
        for (int j = 0; j < (k ? n_items : n); j++, slot++) {
            rc = compile_list(&C, lists[k][j], &off[slot], &len[slot]);
            if (rc != 1)
                goto done;
        }

    batch = PyMem_Malloc(2 * (size_t)(n + 1) * sizeof(Done));
    if (batch == NULL
            || engine_alloc(&E, n, (int)PyList_GET_SIZE(C.lock_names),
                            &lock_q, &lock_qt) < 0) {
        PyErr_NoMemory();
        rc = -1;
        goto done;
    }
    E.segs = C.segs;
    E.item_off = off + n;
    E.item_len = len + n;
    E.n_items = n_items;
    E.now = start;
    for (int t = 0; t < n; t++) {
        E.th[t].segs = C.segs + off[t];
        E.th[t].len = len[t];
    }
    for (int s = 0; s < 2; s++) {
        Server *sv = &E.srv[s];
        sv->capacity = s ? capacity1 : capacity0;
        sv->cap = C.cap[s];
        sv->due = INF;
        sv->last = start;
    }

    if (run_loop(&E, batch) < 0)
        rc = 2;
    else
        rc = emit(&E, C.lock_names, out) < 0 ? -1 : 1;

done:
    engine_free(&E);
    PyMem_Free(batch);
    PyMem_Free(lock_q);
    PyMem_Free(lock_qt);
    PyMem_Free(off);
    PyMem_Free(len);
    PyMem_Free(C.segs);
    Py_XDECREF(C.lock_ids);
    Py_XDECREF(C.lock_names);
    Py_XDECREF(items);
    Py_XDECREF(progs);
    return rc;
}

#include "cpu/core.hh"

#include "cache/l1_cache.hh"
#include "sim/logging.hh"

namespace atomsim
{

Core::Core(CoreId id, EventQueue &eq, const SystemConfig &cfg, L1Cache &l1,
           StatSet &stats)
    : _id(id),
      _eq(eq),
      _cfg(cfg),
      _l1(l1),
      _sq(id, eq, cfg.sqEntries, cfg.sqDrainWidth, l1, stats),
      _nextTxnEvent([this] { nextTransaction(); }, "core.nextTxn"),
      _opDoneEvent([this] { opDone(_opDoneIdx); }, "core.opDone"),
      _execOpEvent([this] { execOp(_execIdx); }, "core.execOp"),
      _statCommitted(
          stats.counter("core" + std::to_string(id), "txn_committed")),
      _statOps(stats.counter("core" + std::to_string(id), "ops")),
      _statLoadStallCycles(stats.counter("core" + std::to_string(id),
                                         "load_stall_cycles"))
{
}

void
Core::start()
{
    panic_if(!_source, "core %u has no transaction source", _id);
    panic_if(!_hooks, "core %u has no design hooks", _id);
    _eq.scheduleIn(_nextTxnEvent, 0);
}

void
Core::nextTransaction()
{
    // The ticket must cover the fetch: the transaction's store payloads
    // are computed functionally by the source, so fetch order is the
    // order shared-structure updates compose in (see RegionSerializer).
    if (_regionSer) {
        _regionSer->acquire([this] { fetchTransaction(); });
        return;
    }
    fetchTransaction();
}

void
Core::fetchTransaction()
{
    _txn = _source->next(_id);
    if (!_txn) {
        if (_regionSer)
            _regionSer->release();
        // Drain outstanding stores, then go idle.
        _sq.whenEmpty([this] { _done = true; });
        return;
    }
    _txnStart = _eq.now();
    execOp(0);
}

void
Core::execOp(std::size_t idx)
{
    if (idx >= _txn->ops.size()) {
        if (_observer)
            _observer(_id, *_txn, _txnStart, _eq.now());
        if (_regionSer)
            _regionSer->release();
        nextTransaction();
        return;
    }
    _statOps.inc();
    const MemOp &op = _txn->ops[idx];

    switch (op.kind) {
      case OpKind::Compute:
        _opDoneIdx = idx;
        _eq.scheduleIn(_opDoneEvent, op.cycles);
        return;

      case OpKind::Load: {
        // Store-to-load forwarding: a queued store to the same line
        // supplies the data without an L1 access.
        if (_sq.holdsLine(op.addr)) {
            _opDoneIdx = idx;
            _eq.scheduleIn(_opDoneEvent, 1);
            return;
        }
        const Tick issued = _eq.now();
        _l1.load(op.addr, [this, idx, issued] {
            _statLoadStallCycles.inc(_eq.now() - issued);
            opDone(idx);
        });
        return;
      }

      case OpKind::Store: {
        std::vector<std::uint8_t> payload = _txn->ops[idx].payload;
        _sq.push(op.addr, std::move(payload),
                 [this, idx] { opDone(idx); });
        return;
      }

      case OpKind::AtomicBegin:
        _hooks->atomicBegin(_id, [this, idx] { opDone(idx); });
        return;

      case OpKind::AtomicEnd:
        // All of the region's stores must retire before the commit
        // protocol runs (the flushes must see the final values).
        _sq.whenEmpty([this, idx] {
            _hooks->atomicEnd(_id, _txn->modifiedLines, [this, idx] {
                _statCommitted.inc();
                opDone(idx);
            });
        });
        return;
    }
    panic("unhandled op kind");
}

void
Core::opDone(std::size_t idx)
{
    // Inter-op compute gap stands in for non-memory instructions.
    _execIdx = idx + 1;
    _eq.scheduleIn(_execOpEvent, _cfg.computeGap);
}

} // namespace atomsim

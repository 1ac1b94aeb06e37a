#include "workloads/workload.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace atomsim
{

std::string
faultf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

RecordingAccessor::RecordingAccessor(DataImage &image, Transaction &txn)
    : _image(image), _txn(txn)
{
}

void
RecordingAccessor::emitLoad(Addr addr, std::uint32_t size)
{
    // Split into word-sized, line-contained chunks.
    while (size > 0) {
        const std::uint32_t to_line =
            std::uint32_t(lineAlign(addr) + kLineBytes - addr);
        const std::uint32_t chunk =
            std::min<std::uint32_t>({8, size, to_line});
        _txn.ops.push_back(MemOp::load(addr, chunk));
        addr += chunk;
        size -= chunk;
    }
}

void
RecordingAccessor::emitStore(Addr addr, const void *bytes,
                             std::uint32_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(bytes);
    while (size > 0) {
        const std::uint32_t to_line =
            std::uint32_t(lineAlign(addr) + kLineBytes - addr);
        const std::uint32_t chunk = std::min<std::uint32_t>(
            {MemOp::kMaxStoreBytes, size, to_line});
        _txn.ops.push_back(MemOp::store(addr, p, chunk));
        if (_inAtomic) {
            // A line's word stores arrive back to back, so most find
            // their line at the back of the list.
            const Addr line = lineAlign(addr);
            if ((_modified.empty() || _modified.back() != line) &&
                std::find(_modified.begin(), _modified.end(), line) ==
                    _modified.end()) {
                _modified.push_back(line);
            }
        }
        p += chunk;
        addr += chunk;
        size -= chunk;
    }
}

std::uint64_t
RecordingAccessor::load64(Addr addr)
{
    emitLoad(addr, 8);
    return _image.load64(addr);
}

void
RecordingAccessor::store64(Addr addr, std::uint64_t value)
{
    emitStore(addr, &value, 8);
    _image.store64(addr, value);
}

std::uint32_t
RecordingAccessor::load32(Addr addr)
{
    emitLoad(addr, 4);
    return _image.load32(addr);
}

void
RecordingAccessor::store32(Addr addr, std::uint32_t value)
{
    emitStore(addr, &value, 4);
    _image.store32(addr, value);
}

void
RecordingAccessor::loadBytes(Addr addr, std::size_t size, void *out)
{
    emitLoad(addr, std::uint32_t(size));
    _image.read(addr, size, out);
}

void
RecordingAccessor::storeBytes(Addr addr, std::size_t size, const void *in)
{
    emitStore(addr, in, std::uint32_t(size));
    _image.write(addr, size, in);
}

void
RecordingAccessor::atomicBegin()
{
    panic_if(_inAtomic, "nested atomicBegin (regions are flattened "
                        "before reaching the trace)");
    _inAtomic = true;
    _txn.ops.push_back(MemOp::marker(OpKind::AtomicBegin));
}

void
RecordingAccessor::atomicEnd()
{
    panic_if(!_inAtomic, "atomicEnd without atomicBegin");
    _inAtomic = false;
    _txn.modifiedLines = std::move(_modified);
    _modified.clear();
    _txn.ops.push_back(MemOp::marker(OpKind::AtomicEnd));
}

void
RecordingAccessor::compute(Cycles cycles)
{
    if (cycles > 0)
        _txn.ops.push_back(MemOp::compute(cycles));
}

} // namespace atomsim

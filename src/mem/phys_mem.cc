#include "mem/phys_mem.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace atomsim
{

const DataImage::Page *
DataImage::findPage(Addr page_num) const
{
    auto it = _pages.find(page_num);
    return it == _pages.end() ? nullptr : it->second.get();
}

DataImage::Page &
DataImage::touchPage(Addr page_num)
{
    auto &slot = _pages[page_num];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

void
DataImage::read(Addr addr, std::size_t size, void *out) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        const Addr page_num = addr >> kPageShift;
        const std::size_t off = addr & (kPageBytes - 1);
        const std::size_t chunk = std::min(size, kPageBytes - off);
        if (const Page *p = findPage(page_num))
            std::memcpy(dst, p->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
DataImage::write(Addr addr, std::size_t size, const void *in)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (size > 0) {
        const Addr page_num = addr >> kPageShift;
        const std::size_t off = addr & (kPageBytes - 1);
        const std::size_t chunk = std::min(size, kPageBytes - off);
        std::memcpy(touchPage(page_num).data() + off, src, chunk);
        src += chunk;
        addr += chunk;
        size -= chunk;
    }
}

Line
DataImage::readLine(Addr addr) const
{
    Line line;
    read(lineAlign(addr), kLineBytes, line.data());
    return line;
}

void
DataImage::writeLine(Addr addr, const Line &line)
{
    write(lineAlign(addr), kLineBytes, line.data());
}

void
DataImage::writeLineWords(Addr addr, const Line &line, std::uint32_t words)
{
    const std::uint32_t capped =
        std::min<std::uint32_t>(words, kLineBytes / 8);
    if (capped == 0)
        return;
    write(lineAlign(addr), std::size_t(capped) * 8, line.data());
}

DataImage
DataImage::clone() const
{
    DataImage copy;
    copy._pages.reserve(_pages.size());
    for (const auto &[num, page] : _pages)
        copy._pages.emplace(num, std::make_unique<Page>(*page));
    return copy;
}

} // namespace atomsim

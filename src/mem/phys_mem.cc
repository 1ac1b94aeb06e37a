#include "mem/phys_mem.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace atomsim
{

DataImage::~DataImage()
{
    releasePages();
}

DataImage &
DataImage::operator=(DataImage &&other) noexcept
{
    if (this != &other) {
        releasePages();
        _pages = std::move(other._pages);
    }
    return *this;
}

void
DataImage::releasePages()
{
    _pages.forEach([](Addr, PageSlot slot) {
        Page *page = pageOf(slot);
        if (--page->refs == 0)
            delete page;
    });
}

DataImage::PageSlot
DataImage::ownedPage(PageSlot slot)
{
    if (slot == 0)
        return reinterpret_cast<PageSlot>(new Page);
    Page *page = pageOf(slot);
    if (page->refs == 1)
        return slot & ~kShared;  // the other holders are gone
    Page *copy = new Page{page->bytes};
    --page->refs;
    return reinterpret_cast<PageSlot>(copy);
}

const std::uint8_t *
DataImage::findPage(Addr page_num) const
{
    const PageSlot *slot = _pages.find(page_num);
    return slot ? pageOf(*slot)->bytes.data() : nullptr;
}

std::uint8_t *
DataImage::writablePage(Addr page_num)
{
    PageSlot &slot = _pages[page_num];
    if (slot == 0 || (slot & kShared))
        slot = ownedPage(slot);
    return pageOf(slot)->bytes.data();
}

void
DataImage::read(Addr addr, std::size_t size, void *out) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        const Addr page_num = addr >> kPageShift;
        const std::size_t off = addr & (kPageBytes - 1);
        const std::size_t chunk = std::min(size, kPageBytes - off);
        if (const std::uint8_t *p = findPage(page_num))
            std::memcpy(dst, p + off, chunk);
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
        std::memcpy(writablePage(page_num) + off, src, chunk);
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
DataImage::clone()
{
    _pages.forEach([](Addr, PageSlot &slot) {
        slot |= kShared;
        ++pageOf(slot)->refs;
    });
    DataImage copy;
    copy._pages = _pages.copy();
    return copy;
}

} // namespace atomsim
